// Package metrics is a minimal ordered registry of named numeric
// gauges and counters. Components publish their counters (buffer-pool
// hit ratios, R/3 table-buffer statistics, cursor-cache reuse, parallel
// engagement counts) into one registry, which renders either as an
// aligned text dump or as JSON for the benchmark snapshot tooling. It
// deliberately has no dependencies and no background machinery: callers
// snapshot their own counters into it at reporting time.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Entry is one named value in registration order.
type Entry struct {
	Name  string
	Value float64
}

// Registry holds named values in first-registration order.
type Registry struct {
	names []string
	vals  map[string]float64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{vals: make(map[string]float64)}
}

// Set records a value, registering the name on first use.
func (r *Registry) Set(name string, v float64) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = v
}

// SetInt records an integer counter.
func (r *Registry) SetInt(name string, v int64) { r.Set(name, float64(v)) }

// Snapshot returns the entries in registration order.
func (r *Registry) Snapshot() []Entry {
	out := make([]Entry, len(r.names))
	for i, n := range r.names {
		out[i] = Entry{Name: n, Value: r.vals[n]}
	}
	return out
}

// formatValue renders counters without a decimal point and ratios with
// four digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// WriteText writes an aligned name/value table in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	width := 0
	for _, n := range r.names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, e := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, e.Name, formatValue(e.Value)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes a single JSON object; keys are sorted so output is
// diff-stable regardless of registration order.
func (r *Registry) WriteJSON(w io.Writer) error {
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{")
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %s", n, formatValue(r.vals[n]))
	}
	b.WriteString("}")
	_, err := io.WriteString(w, b.String())
	return err
}
