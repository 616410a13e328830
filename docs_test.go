package r3bench

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a back-quoted repository path in the prose: it starts at
// one of the source trees and runs to the closing quote, a space or a
// wildcard.
var docPath = regexp.MustCompile("`((?:internal|cmd|examples|scripts)/[A-Za-z0-9_./-]*)")

// docIdent matches a back-quoted Go name in the prose, `pkg.Name` or
// `pkg.Name.Member`, at the opening quote.
var docIdent = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?")

var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// TestDocPathsExist keeps the documents honest about where things are and
// what they are called: every `internal/…`, `cmd/…`, `examples/…` or
// `scripts/…` path that DESIGN.md, README.md or EXPERIMENTS.md names must
// exist in the checkout, and every `pkg.Name` or `pkg.Name.Member` whose pkg
// is a package under internal/ or cmd/ must name a declaration of that
// package — and Member a method or field. An identifier goes in its own
// quotes beside its package's path, and a file a script writes but git
// ignores is named without its directory. A metric the newest BENCH_*.json
// records (`warehouse.simms.full`) is a metric, not a Go name.
func TestDocPathsExist(t *testing.T) {
	pkgs := packageNames(t)
	metrics := metricNames(t)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range docPath.FindAllSubmatch(text, -1) {
			path := string(m[1])
			if seen[path] {
				continue
			}
			seen[path] = true
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names `%s`, which does not exist", doc, path)
			}
		}
		for _, m := range docIdent.FindAllStringSubmatch(string(text), -1) {
			pkg, name, member := m[1], m[2], m[3]
			dirs := pkgs[pkg]
			if len(dirs) == 0 || name == "go" || seen[m[0]] || metrics[m[0][1:]] { // pkg.go is a file
				continue
			}
			seen[m[0]] = true
			found := false
			for _, d := range dirs {
				found = found || d.has(name, member)
			}
			if !found {
				t.Errorf("%s names %s`, which is declared in no package %s", doc, m[0], pkg)
			}
		}
	}
}

// TestLanesOnlyInCost keeps every concurrent fan-out on one primitive: no
// non-test file under internal/ or cmd/ outside internal/cost declares a
// sync.WaitGroup. Overlapping lanes run through cost.Lanes.Run, which waits
// for them, returns the first error in lane order and leaves the meters for
// the caller to fold — the clock's one rule for overlapping work.
func TestLanesOnlyInCost(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") ||
				strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == filepath.Join("internal", "cost") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			syncName := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"sync"` {
					syncName = "sync"
					if imp.Name != nil {
						syncName = imp.Name.Name
					}
				}
			}
			if syncName == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "WaitGroup" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == syncName {
						t.Errorf("%s: sync.WaitGroup outside internal/cost; run the lanes with cost.Lanes.Run", fset.Position(sel.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// metricNames returns the metric names the newest BENCH_*.json records.
func metricNames(t *testing.T) map[string]bool {
	t.Helper()
	snaps, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no BENCH_*.json: %v", err)
	}
	data, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for name := range snap.Metrics {
		names[name] = true
	}
	return names
}

// pkgDecls is what one package directory declares: its top-level names, and
// per type the methods and fields it has.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool // type name → method and field names
}

// has reports whether name is declared and member, when given, is a method
// or field of it — of any type in the package when name is not a type (a
// variable's type need not be spelled out).
func (d pkgDecls) has(name, member string) bool {
	if !d.top[name] {
		return false
	}
	if member == "" {
		return true
	}
	if ms, ok := d.members[name]; ok {
		return ms[member]
	}
	for _, ms := range d.members {
		if ms[member] {
			return true
		}
	}
	return false
}

// packageNames parses every Go file under internal/ and cmd/ and returns the
// declarations of each package directory by its last path element.
func packageNames(t *testing.T) map[string][]pkgDecls {
	t.Helper()
	byDir := map[string]pkgDecls{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			d, ok := byDir[dir]
			if !ok {
				d = pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
				byDir[dir] = d
			}
			d.add(f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	out := map[string][]pkgDecls{}
	for dir, d := range byDir {
		out[filepath.Base(dir)] = append(out[filepath.Base(dir)], d)
	}
	return out
}

// add records the declarations of one file.
func (d pkgDecls) add(f *ast.File) {
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.top[decl.Name.Name] = true
				continue
			}
			typ := decl.Recv.List[0].Type // T, *T, T[P] or *T[P, Q]
			if x, ok := typ.(*ast.StarExpr); ok {
				typ = x.X
			}
			if x, ok := typ.(*ast.IndexExpr); ok {
				typ = x.X
			}
			if x, ok := typ.(*ast.IndexListExpr); ok {
				typ = x.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				member(id.Name, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.top[n.Name] = true
					}
				case *ast.TypeSpec:
					d.top[spec.Name.Name] = true
					member(spec.Name.Name, "") // a type with no members is still a type
					var fields []*ast.Field
					switch x := spec.Type.(type) {
					case *ast.StructType:
						fields = x.Fields.List
					case *ast.InterfaceType:
						fields = x.Methods.List
					}
					for _, fl := range fields {
						for _, n := range fl.Names {
							member(spec.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}
