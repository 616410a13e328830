package sqlparse

import (
	"reflect"
	"testing"
)

// FuzzParse drives the zero-allocation front end with arbitrary bytes
// and asserts the structural invariants the engine relies on:
//
//  1. no panics (the parser must reject, never crash);
//  2. old/new validity agreement — the lazy lexer accepts exactly the
//     statements the eager one did (error TEXT may differ on inputs
//     that are doubly invalid: a parse error can preempt a later lex
//     error the old whole-input lexer saw first);
//  3. round-trip stability — a reused Parser (arena recycling) and a
//     second pooled Parse both reproduce the first AST exactly;
//  4. Inspect visits every Statement, TableRef and Expr node a reflection
//     walk of the AST reaches, each once — so a node type or child field
//     added without a case in Inspect fails here.
func FuzzParse(f *testing.F) {
	for _, src := range corpus {
		f.Add(src)
	}
	f.Add("SELECT 1.2.3 FROM t")
	f.Add("SELECT 'a''b' FROM t -- comment\n")
	f.Add("select x from t where y <= ? and z <> 'q;' limit 3;")
	f.Add("CREATE TABLE \x00weird (a INTEGER)")
	reused := NewParser()
	f.Fuzz(func(t *testing.T, src string) {
		ast1, err1 := Parse(src)
		_, oldErr := OldParse(src)
		if (err1 == nil) != (oldErr == nil) {
			t.Fatalf("validity diverged on %q: new=%v old=%v", src, err1, oldErr)
		}
		ast2, err2 := Parse(src)
		astR, errR := reused.Parse(src)
		if (err1 == nil) != (err2 == nil) || (err1 == nil) != (errR == nil) {
			t.Fatalf("instability on %q: %v / %v / %v", src, err1, err2, errR)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() || err1.Error() != errR.Error() {
				t.Fatalf("error text unstable on %q: %q / %q / %q",
					src, err1, err2, errR)
			}
			return
		}
		if !reflect.DeepEqual(ast1, ast2) || !reflect.DeepEqual(ast1, astR) {
			t.Fatalf("AST unstable on %q", src)
		}
		visited := map[Node]int{}
		Inspect(ast1, func(n Node) bool { visited[n]++; return true })
		if want := reachable(reflect.ValueOf(ast1), map[Node]int{}); !reflect.DeepEqual(visited, want) {
			t.Fatalf("Inspect visited %d nodes, reflection reaches %d, on %q", len(visited), len(want), src)
		}
	})
}

var nodeTypes = []reflect.Type{
	reflect.TypeOf((*Statement)(nil)).Elem(),
	reflect.TypeOf((*TableRef)(nil)).Elem(),
	reflect.TypeOf((*Expr)(nil)).Elem(),
}

// reachable counts into seen the nodes a walk of v's exported fields reaches.
func reachable(v reflect.Value, seen map[Node]int) map[Node]int {
	switch v.Kind() {
	case reflect.Interface:
		reachable(v.Elem(), seen)
	case reflect.Pointer:
		if v.IsNil() {
			break
		}
		for _, t := range nodeTypes {
			if v.Type().Implements(t) {
				seen[v.Interface()]++
				break
			}
		}
		reachable(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				reachable(v.Field(i), seen)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			reachable(v.Index(i), seen)
		}
	}
	return seen
}
