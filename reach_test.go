package r3bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyList is the allowlist of declarations no program reaches, one
// `pkg.Name  reason` or `pkg.Type.Method  reason` per line.
const testOnlyList = "testdata/test_only.txt"

// TestEveryDeclarationServesAProgram keeps every top-level declaration of
// the module and of bench/ on a path some program runs. It type-checks every
// non-test package and marks live, from each main.main, every init and
// every package-level var initializer, whatever their bodies name, then what
// those declarations name in turn; a method is also live when its receiver
// type is and its name is a method of some interface, so dynamic dispatch
// is never flagged. Every func, method, type, const and var left unmarked
// must be listed in testdata/test_only.txt with its reason, and every listed
// entry must still be unmarked: the list can only shrink.
func TestEveryDeclarationServesAProgram(t *testing.T) {
	dead := unreachedDecls(t)
	listed := readTestOnly(t)
	for _, key := range sortedKeys(dead) {
		if _, ok := listed[key]; !ok {
			t.Errorf("%s: %s is reached by no program; call it from one, delete it, or list it in %s with a reason", dead[key], key, testOnlyList)
		}
	}
	for _, key := range sortedKeys(listed) {
		if _, ok := dead[key]; !ok {
			t.Errorf("%s lists %s, which a program now reaches or which is gone; take it off the list", testOnlyList, key)
		}
	}
}

// readTestOnly parses the allowlist into its keys and reasons; blank lines
// and lines starting with # are skipped.
func readTestOnly(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(testOnlyList)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s gives no reason", testOnlyList, n, key)
		}
		if _, dup := listed[key]; dup {
			t.Errorf("%s:%d: %s is listed twice", testOnlyList, n, key)
		}
		listed[key] = reason
	}
	return listed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// listedPkg is the part of `go list -json` the pass reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// goList returns the non-standard packages ./... of the module in dir
// depends on, dependencies first. cgo is off so that the standard library
// type-checks from its pure-Go files, as the source importer reads it.
func goList(t *testing.T, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// moduleImporter serves the packages the pass has checked itself and hands
// the standard library to the source importer.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}

// unreachedDecls returns the top-level declarations no program reaches, by
// key, with where each is declared.
func unreachedDecls(t *testing.T) map[string]token.Position {
	t.Helper()
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := moduleImporter{checked: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}

	type decl struct {
		key   string
		pos   token.Position
		nodes []ast.Node // what the declaration names when it is live
	}
	decls := map[types.Object]*decl{}
	var roots []ast.Node // main.main, init bodies and var initializers
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}

	var pkgs []listedPkg
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir) {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg

		prefix := filepath.Base(p.ImportPath) + "."
		add := func(id *ast.Ident, key string, nodes ...ast.Node) {
			if id.Name != "_" {
				decls[info.Defs[id]] = &decl{key: prefix + key, pos: fset.Position(id.Pos()), nodes: nodes}
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv != nil:
						add(d.Name, recvName(info.Defs[d.Name])+"."+d.Name.Name, d)
					case d.Name.Name == "init" || (p.Name == "main" && d.Name.Name == "main"):
						roots = append(roots, d)
					default:
						add(d.Name, d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for i, id := range s.Names {
								nodes := []ast.Node{s.Type}
								if d.Tok == token.CONST && i < len(s.Values) {
									nodes = append(nodes, s.Values[i])
								}
								add(id, id.Name, nodes...)
							}
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									roots = append(roots, v)
								}
							}
						}
					}
				}
			}
		}
	}
	// Every interface the packages spell out, and every one declared in a
	// package they import, the standard library's among them (fmt.Stringer,
	// sort.Interface), names methods some caller may reach through it.
	ifaceNames := map[string]bool{}
	for _, tv := range info.Types {
		addIfaceNames(ifaceNames, tv.Type)
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIfaceNames(ifaceNames, tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range imp.checked {
		walk(p)
	}
	addIfaceNames(ifaceNames, types.Universe.Lookup("error").Type())

	live := map[types.Object]bool{}
	var queue []types.Object
	reach := func(obj types.Object) {
		if decls[obj] != nil && !live[obj] {
			live[obj] = true
			queue = append(queue, obj)
		}
	}
	mark := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			reach(obj)
			return true
		})
	}
	for _, n := range roots {
		mark(n)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for _, n := range decls[obj].nodes {
			mark(n)
		}
		if named, ok := obj.Type().(*types.Named); ok && obj == named.Obj() {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); ifaceNames[m.Name()] {
					reach(m)
				}
			}
		}
	}

	dead := map[string]token.Position{}
	for obj, d := range decls {
		if !live[obj] {
			dead[d.key] = d.pos
		}
	}
	return dead
}

// recvName returns the name of a method's receiver base type.
func recvName(obj types.Object) string {
	typ := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named).Obj().Name()
}

// addIfaceNames adds the method names of typ to names when typ is an
// interface.
func addIfaceNames(names map[string]bool, typ types.Type) {
	if typ == nil {
		return
	}
	if it, ok := typ.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
}
