package metrics

import (
	"strings"
	"testing"
)

func TestRegistryOrderAndValues(t *testing.T) {
	r := New()
	r.SetInt("b.count", 3)
	r.Set("a.ratio", 0.5)
	r.SetInt("b.count", 5)
	r.SetInt("c.new", 1)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d", len(snap))
	}
	// Registration order, not alphabetical.
	if snap[0].Name != "b.count" || snap[0].Value != 5 {
		t.Errorf("first entry %+v", snap[0])
	}
	if snap[1].Name != "a.ratio" || snap[1].Value != 0.5 || snap[2].Name != "c.new" {
		t.Errorf("later entries %+v", snap[1:])
	}
}

func TestRegistryText(t *testing.T) {
	r := New()
	r.SetInt("hits", 12)
	r.Set("ratio", 0.25)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hits   12\n") {
		t.Errorf("counter not integer-formatted:\n%s", out)
	}
	if !strings.Contains(out, "ratio  0.2500\n") {
		t.Errorf("ratio not fixed-point:\n%s", out)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := New()
	r.SetInt("z.last", 1)
	r.SetInt("a.first", 2)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `{"a.first": 2, "z.last": 1}`
	if got != want {
		t.Errorf("JSON = %s, want %s", got, want)
	}
}
