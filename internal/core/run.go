package core

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// Experiment is one reproducible paper artifact. Its Run prints the
// paper-style report to cfg.Out and publishes whatever the snapshot
// tooling gates on into the run's metrics registry (cfg.registry()).
type Experiment struct {
	// Seq is the experiment's position in the run order — explicit, so
	// `-exp all` does not depend on the order files initialize in.
	Seq      int
	ID       string // "table2", ...
	Title    string
	PaperRef string
	Run      func(cfg *Config) error
}

// experiments is the registration table, sorted by Seq. Each experiment's
// file fills it from init; nothing writes it afterwards.
var experiments []Experiment

// register adds an experiment to the run. An experiment is one file: it
// registers itself here and nothing else needs to learn its name. A
// duplicate ID or position is a programming error.
func register(e Experiment) {
	for _, x := range experiments {
		if x.ID == e.ID || x.Seq == e.Seq {
			panic(fmt.Sprintf("core: experiment %q (position %d) collides with %q (position %d)", e.ID, e.Seq, x.ID, x.Seq))
		}
	}
	experiments = append(experiments, e)
	sort.Slice(experiments, func(i, j int) bool { return experiments[i].Seq < experiments[j].Seq })
}

// IDs lists the experiment IDs in run order — the paper's tables first,
// then the modern ablations: what `-exp` accepts.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}

// Find returns the experiment with the given ID, or nil.
func Find(id string) *Experiment {
	for i := range experiments {
		if experiments[i].ID == id {
			return &experiments[i]
		}
	}
	return nil
}

// RunAll executes every experiment in run order.
func RunAll(cfg *Config) error {
	for _, id := range IDs() {
		if err := RunOne(cfg, id); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment by ID ("table2", ...).
func RunOne(cfg *Config, id string) error {
	normalize(cfg)
	e := Find(id)
	if e == nil {
		return fmt.Errorf("core: no experiment %q (try %s)", id, strings.Join(IDs(), ", "))
	}
	cfg.printf("\n=== %s — %s (paper %s; SF=%.3g) ===\n\n", e.ID, e.Title, e.PaperRef, cfg.SF)
	if err := e.Run(cfg); err != nil {
		return fmt.Errorf("core: %s: %w", e.ID, err)
	}
	return nil
}

func normalize(cfg *Config) {
	if cfg.SF == 0 {
		cfg.SF = DefaultSF
	}
	if cfg.Out == nil {
		cfg.Out = os.Stdout
	}
}

func (cfg *Config) printf(format string, args ...any) {
	fmt.Fprintf(cfg.Out, format, args...)
}

// sweep returns the widths a scaling experiment runs at: 1, 2, 4, … up to
// max, then max itself if it is not a power of two; max <= 0 means 8.
func sweep(max int) []int {
	if max <= 0 {
		max = 8
	}
	var ns []int
	for n := 1; n <= max; n *= 2 {
		ns = append(ns, n)
	}
	if ns[len(ns)-1] != max {
		ns = append(ns, max)
	}
	return ns
}
