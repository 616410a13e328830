package r3bench

import (
	"os"
	"regexp"
	"testing"
)

// docPath matches a back-quoted repository path in the prose: it starts at
// one of the source trees and runs to the closing quote, a space or a
// wildcard.
var docPath = regexp.MustCompile("`((?:internal|cmd|examples|scripts)/[A-Za-z0-9_./-]*)")

// TestDocPathsExist keeps the documents honest about where things are:
// every `internal/…`, `cmd/…`, `examples/…` or `scripts/…` path that
// DESIGN.md, README.md or EXPERIMENTS.md names must exist in the checkout.
// An identifier goes in its own quotes beside its package's path, and a
// file a script writes but git ignores is named without its directory.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
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
	}
}
