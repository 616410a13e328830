// Package core is the paper's actual contribution, rebuilt: a benchmark
// harness that measures the *combined* application-system + DBMS stack
// rather than the database in isolation. It wires the substrates together
// — the TPC-D generator, the relational engine, the SAP R/3 simulator and
// its report implementations — into one runner per table of the paper
// (Tables 2–9), printing paper-style results on the shared virtual clock.
package core

import (
	"fmt"
	"io"

	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/metrics"
	"r3bench/internal/r3"
	"r3bench/internal/tpcd"
)

// Config parameterizes an experiment run.
type Config struct {
	// SF is the TPC-D scale factor. The paper uses 0.2; the default here
	// is 0.02 so a full run finishes in minutes of wall time. Simulated
	// times scale close to linearly.
	SF  float64
	Out io.Writer
	// Options is the configuration of the run's shared systems: both R/3
	// systems start with the whole value, the original-schema DB and the
	// shard clusters with its Engine part. The zero value is the paper's
	// configuration; an ablation applies a diff for the length of one
	// measurement and puts back what the run started with.
	Options r3.Options
	// Streams is the largest stream count the throughput experiment
	// drives (it sweeps 1, 2, 4, ... up to this). 0 means the default 8.
	Streams int
	// Shards is the widest cluster the shardscale experiment sweeps to
	// (it runs 1, 2, 4, ... up to this). 0 means the default 8.
	Shards int

	env *Env
	reg *metrics.Registry
}

// DefaultSF keeps full harness runs to minutes of real time.
const DefaultSF = 0.02

// Env lazily builds and caches the populated databases all experiments
// share: the original-schema DB, a Release 2.2G system, and a Release
// 3.0E system (KONV converted, ship-date index dropped — the paper's 3.0
// tuning).
type Env struct {
	cfg  *Config
	Gen  *dbgen.Generator
	rdb  *engine.DB
	sys2 *r3.System
	sys3 *r3.System
}

// envOf returns the config's lazily created environment.
func (cfg *Config) envOf() *Env {
	if cfg.env == nil {
		cfg.env = &Env{cfg: cfg, Gen: dbgen.New(cfg.SF)}
	}
	return cfg.env
}

// registry returns the run's metrics registry: every experiment publishes its
// results into it as it runs.
func (cfg *Config) registry() *metrics.Registry {
	if cfg.reg == nil {
		cfg.reg = metrics.New()
	}
	return cfg.reg
}

// RDB returns the loaded original-schema database.
func (e *Env) RDB() (*engine.DB, error) {
	if e.rdb == nil {
		db := engine.Open(engine.Config{})
		db.SetOptions(e.cfg.Options.Engine)
		if err := tpcd.Load(db, e.Gen, nil); err != nil {
			return nil, fmt.Errorf("core: loading original DB: %w", err)
		}
		e.rdb = db
	}
	return e.rdb, nil
}

// install creates an R/3 system of the given release under the run's
// options and loads the population into it.
func (e *Env) install(release r3.Release) (*r3.System, error) {
	sys, err := r3.Install(r3.Config{Release: release})
	if err != nil {
		return nil, err
	}
	sys.SetOptions(e.cfg.Options)
	if err := sys.LoadDirect(e.Gen); err != nil {
		return nil, fmt.Errorf("core: loading %s SAP DB: %w", release, err)
	}
	return sys, nil
}

// Sys22 returns the loaded Release 2.2G system.
func (e *Env) Sys22() (*r3.System, error) {
	if e.sys2 == nil {
		sys, err := e.install(r3.Release22)
		if err != nil {
			return nil, err
		}
		e.sys2 = sys
	}
	return e.sys2, nil
}

// Sys30 returns the loaded, upgraded Release 3.0E system: KONV converted
// to transparent and the default ship-date index deleted, exactly the
// configuration of the paper's Table 5 run.
func (e *Env) Sys30() (*r3.System, error) {
	if e.sys3 == nil {
		sys, err := e.install(r3.Release30)
		if err != nil {
			return nil, err
		}
		if err := sys.ConvertToTransparent("KONV", nil); err != nil {
			return nil, err
		}
		if err := sys.DropIndex("VBEP", "VBEP_EDATU"); err != nil {
			return nil, err
		}
		e.sys3 = sys
	}
	return e.sys3, nil
}
