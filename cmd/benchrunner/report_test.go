package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// above and below are the nearest floats either side of v.
func above(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
func below(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }

// TestCheckGates puts every gate an experiment builds exactly at its
// bound (passes), one step past it (fails), and drops its metric
// (fails). The gates come from the experiments' own gate functions,
// so the bounds under test are the ones the runs apply.
func TestCheckGates(t *testing.T) {
	// Runtime float64 operands, so expected bounds round the way the
	// gate functions' products do.
	p99, batch := 3.118184, 0.154
	serve := serveGates(1000, map[string]float64{"submitted": 1000})
	net := netGates(400, map[string]float64{"submitted": 400},
		&report{Metrics: map[string]float64{"latency_p99_ms": p99}})
	shard := shardGates(shardFloor(2, 4), map[string]float64{"engine_submitted": 2000})
	micro := microGates(&report{Metrics: map[string]float64{
		"BenchmarkA.ns_per_op": 31637, "BenchmarkA.allocs_per_op": 139,
		"BenchmarkZero.ns_per_op": 28.86, "BenchmarkZero.allocs_per_op": 0,
	}})
	learn := learnGates(map[string]float64{"batch_err": batch})
	cases := []struct {
		name       string
		gates      []gate
		metric     string
		pass, fail float64
	}{
		{"serve/lost", serve, "lost_completions", 0, 1},
		{"serve/completed", serve, "completed", 1000, 999},
		{"serve/errors", serve, "errors", 0, 1},
		{"serve/canceled", serve, "canceled", 0, 1},
		{"serve/cache", serve, "cache_hit_rate", above(0.5), 0.5},
		{"net/lost", net, "lost_completions", 0, 1},
		{"net/client-completed", net, "client_completed", 400, 399},
		{"net/busy", net, "client_busy", 0, 1},
		{"net/client-errors", net, "client_errors", 0, 1},
		{"net/completed", net, "completed", 400, 399},
		{"net/errors", net, "errors", 0, 1},
		{"net/rejected", net, "rejected", 0, 1},
		{"net/p99", net, "latency_p99_ms", p99 * 1.5, above(p99 * 1.5)},
		{"shard/lost", shard, "lost_completions", 0, 1},
		{"shard/client-errors", shard, "client_errors", 0, 1},
		{"shard/failovers", shard, "failovers", 1, 0},
		{"shard/engine-completed", shard, "engine_completed", 2000, 1999},
		{"shard/scaling", shard, "scaling", 1.25, below(1.25)},
		{"micro/hll", micro, "hll_max_rel_err", 0.05, above(0.05)},
		{"micro/bloom", micro, "bloom_mismatches", 0, 1},
		{"micro/allocs", micro, "BenchmarkA.allocs_per_op", 145, 146}, // 139 + 139/20
		{"micro/zero-allocs", micro, "BenchmarkZero.allocs_per_op", 0, 1},
		{"micro/ns", micro, "BenchmarkA.ns_per_op", 31637 * 4, above(31637 * 4)},
		{"fault/completion", faultGates(), "completion_rate", 1, below(1)},
		{"learn/challenger", learn, "final_challenger_err", batch * 1.10, above(batch * 1.10)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var g []gate
			for _, x := range c.gates {
				if x.Metric == c.metric {
					g = append(g, x)
				}
			}
			if len(g) != 1 {
				t.Fatalf("made %d gates on %s, want 1", len(g), c.metric)
			}
			run := func(m map[string]float64) error {
				return check(&report{Experiment: c.name, Metrics: m, Gates: g}, nil)
			}
			if err := run(map[string]float64{c.metric: c.pass}); err != nil {
				t.Errorf("%s = %g at bound: %v", c.metric, c.pass, err)
			}
			if err := run(map[string]float64{c.metric: c.fail}); err == nil {
				t.Errorf("%s = %g past bound %s %g passed", c.metric, c.fail, g[0].Op, g[0].Bound)
			}
			if err := run(map[string]float64{}); err == nil || !strings.Contains(err.Error(), "missing") {
				t.Errorf("missing %s: got %v, want a missing-metric failure", c.metric, err)
			}
		})
	}
}

func TestShardFloor(t *testing.T) {
	for _, c := range []struct {
		procs, shards int
		want          float64
	}{{1, 4, 0.625}, {2, 4, 1.25}, {4, 4, 2.5}, {8, 4, 2.5}} {
		if got := shardFloor(c.procs, c.shards); got != c.want {
			t.Errorf("shardFloor(%d, %d) = %g, want %g", c.procs, c.shards, got, c.want)
		}
	}
}

func TestParseBenchText(t *testing.T) {
	got := parseBenchText(`goos: linux
pkg: saqp/internal/sketch
cpu: Intel(R) Xeon(R) Processor @ 2.00GHz
BenchmarkMicroSketchHash64-2   	100000000	        10.50 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-16   	 5000	    31637 ns/op	     139 allocs/op
BenchmarkMicroEngine-Join-4   	 30	  35000505 ns/op	25847697 B/op	  236620 allocs/op
PASS
ok  	saqp/internal/sketch	3.2s
Benchmark summary line
`)
	want := map[string]float64{
		"BenchmarkMicroSketchHash64.ns_per_op":     10.5,
		"BenchmarkMicroSketchHash64.bytes_per_op":  0,
		"BenchmarkMicroSketchHash64.allocs_per_op": 0,
		"BenchmarkNoMem.ns_per_op":                 31637,
		"BenchmarkNoMem.bytes_per_op":              0,
		"BenchmarkNoMem.allocs_per_op":             139,
		"BenchmarkMicroEngine-Join.ns_per_op":      35000505,
		"BenchmarkMicroEngine-Join.bytes_per_op":   25847697,
		"BenchmarkMicroEngine-Join.allocs_per_op":  236620,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d metrics, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s = %g (present %v), want %g", k, g, ok, v)
		}
	}
}

// TestBaselinesHoldGatedMetrics loads every committed baseline into
// the report schema and requires it to carry every metric its
// experiment's gates read — including the baseline-relative gates
// built from it — and to pass those gates itself.
func TestBaselinesHoldGatedMetrics(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/bench_baseline/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines found: %v", err)
	}
	for _, path := range paths {
		base, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := "BENCH_" + base.Experiment + ".json"; filepath.Base(path) != want {
			t.Errorf("%s holds a %q report", path, base.Experiment)
		}
		var gates []gate
		switch base.Experiment {
		case "serve":
			gates = serveGates(1000, base.Metrics)
		case "net":
			gates = netGates(400, base.Metrics, base)
		case "shard":
			gates = shardGates(shardFloor(base.Env.GOMAXPROCS, 4), base.Metrics)
		case "micro":
			gates = microGates(base)
			if len(gates) <= 2 {
				t.Errorf("%s: no benchmark gates built from the baseline", path)
			}
		default:
			t.Fatalf("%s: no gates known for experiment %q", path, base.Experiment)
		}
		for _, g := range gates {
			if _, ok := base.Metrics[g.Metric]; !ok {
				t.Errorf("%s lacks gated metric %s", path, g.Metric)
			}
		}
		if err := check(&report{Experiment: base.Experiment, Metrics: base.Metrics, Gates: gates}, nil); err != nil {
			t.Errorf("%s fails its own gates: %v", path, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := newReport("net", map[string]any{"queries": 400, "scheduler": "SWRD"},
		map[string]float64{"latency_p99_ms": 3.118184})
	r.Gates = []gate{{"latency_p99_ms", "<=", 4.677276}}
	path := filepath.Join(t.TempDir(), "BENCH_net.json")
	if err := save(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"op": "<="`) {
		t.Errorf("gate op escaped in %s", data)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Env != r.Env || got.Metrics["latency_p99_ms"] != 3.118184 || got.Gates[0] != r.Gates[0] ||
		got.Params["scheduler"] != "SWRD" {
		t.Errorf("round trip changed the report: %+v", got)
	}
}

// TestDrive hands every arrival to exactly one submitter, closed- and
// open-loop, and splits completions from failures.
func TestDrive(t *testing.T) {
	for _, qps := range []float64{0, 5000} {
		const n, conc = 200, 8
		var seen [n]atomic.Int32
		ld := drive(n, conc, qps, func(w, i int) error {
			if w < 0 || w >= conc {
				t.Errorf("worker %d out of range", w)
			}
			seen[i].Add(1)
			if i%10 == 0 {
				return os.ErrDeadlineExceeded
			}
			return nil
		})
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Errorf("qps=%g: arrival %d submitted %d times", qps, i, c)
			}
		}
		if ld.done() != 180 || ld.fails != 20 {
			t.Errorf("qps=%g: done=%d fails=%d, want 180 and 20", qps, ld.done(), ld.fails)
		}
		for i := 1; i < len(ld.lat); i++ {
			if ld.lat[i] < ld.lat[i-1] {
				t.Fatalf("qps=%g: latencies unsorted at %d", qps, i)
			}
		}
		m := map[string]float64{}
		ld.latencyMetrics(m)
		if m["latency_max_ms"] < m["latency_p99_ms"] || m["latency_p99_ms"] < m["latency_p50_ms"] || m["achieved_qps"] <= 0 {
			t.Errorf("qps=%g: inconsistent latency metrics %v", qps, m)
		}
	}
}
