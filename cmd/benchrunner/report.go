package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"saqp"
)

// report is every experiment's BENCH_<experiment>.json. Metrics hold
// the run's numbers; gates hold the bounds those numbers must meet,
// with any baseline-relative bound already computed, so check is the
// one place a gate is enforced.
type report struct {
	Experiment string                 `json:"experiment"`
	Env        env                    `json:"env"`
	Params     map[string]any         `json:"params"`
	Metrics    map[string]float64     `json:"metrics"`
	Gates      []gate                 `json:"gates,omitempty"`
	Registry   *saqp.RegistrySnapshot `json:"registry,omitempty"`
	Detail     any                    `json:"detail,omitempty"`
}

// env is the configuration a timing was taken under: a wall-clock
// number is only comparable to one measured in the same env. Fields a
// committed baseline predates are left empty.
type env struct {
	Cores      int    `json:"cores,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	Race       bool   `json:"race,omitempty"`
}

// gate requires Metrics[Metric] Op Bound. A report lacking the metric
// fails the gate.
type gate struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Bound  float64 `json:"bound"`
}

func (g gate) holds(v float64) bool {
	switch g.Op {
	case "==":
		return v == g.Bound
	case "<=":
		return v <= g.Bound
	case ">=":
		return v >= g.Bound
	case ">":
		return v > g.Bound
	}
	return false
}

// newReport starts a report stamped with the current env.
func newReport(experiment string, params map[string]any, metrics map[string]float64) *report {
	e := env{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				e.Race = s.Value == "true"
			}
		}
	}
	return &report{Experiment: experiment, Env: e, Params: params, Metrics: metrics}
}

// save writes r as indented JSON to path, gate ops unescaped.
func save(path string, r *report) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// load reads a report written by save.
func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// check prints cur against base (nil for none): the delta of every
// metric both carry, and both envs when they differ. It then evaluates
// cur's gates and returns every failure. The delta itself never fails
// a run; only gates do.
func check(cur, base *report) error {
	if base != nil {
		fmt.Println("delta vs baseline:")
		names := make([]string, 0, len(cur.Metrics))
		for k := range cur.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			old, ok := base.Metrics[k]
			if !ok {
				continue
			}
			v := cur.Metrics[k]
			d := 0.0
			if old != 0 {
				d = 100 * (v - old) / old
			}
			fmt.Printf("  %-48s %12.4g  baseline %12.4g  (%+.1f%%)\n", k, v, old, d)
		}
		if cur.Env != base.Env {
			// Marshaling a struct of scalars cannot fail.
			ce, _ := json.Marshal(cur.Env)
			be, _ := json.Marshal(base.Env)
			fmt.Printf("  env differs: this run %s, baseline %s\n", ce, be)
		}
	}
	var failed []string
	for _, g := range cur.Gates {
		v, ok := cur.Metrics[g.Metric]
		switch {
		case !ok:
			failed = append(failed, fmt.Sprintf("%s: missing from this run (want %s %g)", g.Metric, g.Op, g.Bound))
		case !g.holds(v):
			failed = append(failed, fmt.Sprintf("%s = %g, want %s %g", g.Metric, v, g.Op, g.Bound))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%s: %d gate(s) failed:\n  %s", cur.Experiment, len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// output is where every experiment sends its report.
type output struct {
	dir    string  // -bench-out directory; "" writes no BENCH file
	base   *report // -baseline, loaded; nil when absent or rebasing
	rebase string  // -baseline path to rewrite from a passing run; "" = none
}

// finish writes r into the bench-out directory, checks it against the
// baseline, and on a passing run rewrites the baseline when rebasing.
func (o output) finish(r *report) error {
	if o.dir != "" {
		path := filepath.Join(o.dir, "BENCH_"+r.Experiment+".json")
		if err := save(path, r); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if err := check(r, o.base); err != nil {
		return err
	}
	if o.rebase != "" {
		if err := save(o.rebase, r); err != nil {
			return err
		}
		fmt.Printf("baseline rebased to %s\n", o.rebase)
	}
	return nil
}
