package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"saqp"
	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/mapreduce"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
)

// microTimeGate is how far a benchmark's ns/op may exceed its baseline
// (machine variance); allocs/op always gates hard.
const microTimeGate = 4.0

// microHLLGate bounds the relative error of every HLL distinct estimate
// against the exact count.
const microHLLGate = 0.05

// parseBenchText extracts Benchmark* result lines from `go test -bench
// -benchmem` output — name, iteration count, then value/unit pairs —
// as <Benchmark>.ns_per_op, .bytes_per_op and .allocs_per_op metrics.
// A unit missing from a line reads as 0.
func parseBenchText(data string) map[string]float64 {
	units := map[string]string{"ns/op": ".ns_per_op", "B/op": ".bytes_per_op", "allocs/op": ".allocs_per_op"}
	out := map[string]float64{}
	for _, line := range strings.Split(data, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -<GOMAXPROCS> suffix so baselines survive core-count
		// changes between machines.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		for _, suffix := range units {
			out[name+suffix] = 0
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			suffix, ok := units[fields[i+1]]
			if err != nil || !ok {
				continue
			}
			if suffix != ".ns_per_op" {
				v = float64(int64(v)) // whole bytes and allocations
			}
			out[name+suffix] = v
		}
	}
	return out
}

// microHLLAccuracy collects exact statistics (which also build sketches)
// over TPC-H and returns the worst relative error of the HLL distinct
// estimates, with the column count inspected.
func microHLLAccuracy(cat *catalog.Catalog) (int, float64) {
	cols := 0
	worst := 0.0
	for _, t := range cat.Tables {
		for _, cs := range t.Columns {
			if cs.Sketch == nil || cs.Sketch.HLL == nil || cs.Distinct <= 0 {
				continue
			}
			cols++
			rel := math.Abs(cs.Sketch.HLL.Estimate()-float64(cs.Distinct)) / float64(cs.Distinct)
			if rel > worst {
				worst = rel
			}
		}
	}
	return cols, worst
}

// compileTPCH compiles every canonical TPC-H query.
func compileTPCH() (map[string]*plan.DAG, error) {
	dags := make(map[string]*plan.DAG)
	for _, name := range saqp.TPCHNames() {
		sql, err := saqp.TPCHSQL(name)
		if err != nil {
			return nil, err
		}
		q, err := query.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		dags[name] = d
	}
	return dags, nil
}

// microEstimatorDivergence prices every TPC-H plan under the exact and
// sketch tiers of the same collected catalog and records the worst
// absolute IS/FS differences and the worst join/group output-cardinality
// relative error.
func microEstimatorDivergence(cat *catalog.Catalog, dags map[string]*plan.DAG, m map[string]float64) error {
	exact := selectivity.NewEstimator(cat, selectivity.Config{})
	sk := selectivity.NewEstimator(cat, selectivity.Config{Stats: selectivity.StatsSketch})
	for _, k := range []string{"estimator_jobs", "estimator_sketch_cols", "estimator_max_is_diff",
		"estimator_max_fs_diff", "estimator_max_outrows_rel_err"} {
		m[k] = 0
	}
	for _, name := range sortedNames(dags) {
		qeE, err := exact.EstimateQuery(dags[name])
		if err != nil {
			return fmt.Errorf("%s exact: %w", name, err)
		}
		qeS, err := sk.EstimateQuery(dags[name])
		if err != nil {
			return fmt.Errorf("%s sketch: %w", name, err)
		}
		m["estimator_sketch_cols"] += float64(qeS.SketchCols)
		for i, je := range qeS.Jobs {
			ex := qeE.Jobs[i]
			m["estimator_jobs"]++
			m["estimator_max_is_diff"] = math.Max(m["estimator_max_is_diff"], math.Abs(je.IS-ex.IS))
			m["estimator_max_fs_diff"] = math.Max(m["estimator_max_fs_diff"], math.Abs(je.FS-ex.FS))
			if ex.OutRows > 0 {
				rel := math.Abs(je.OutRows-ex.OutRows) / ex.OutRows
				m["estimator_max_outrows_rel_err"] = math.Max(m["estimator_max_outrows_rel_err"], rel)
			}
		}
	}
	return nil
}

// sortedNames is dags' query names in order.
func sortedNames(dags map[string]*plan.DAG) []string {
	names := make([]string, 0, len(dags))
	for n := range dags {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// microFrameEqual reports whether two result frames match exactly.
func microFrameEqual(a, b *mapreduce.Frame) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !a.Rows[i][j].Equal(b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// microBloomReplay runs every TPC-H query through the engine with Bloom
// semi-join pruning off and on. Any output divergence is a false
// negative (a matching tuple the filter dropped) and counts as a
// mismatch; probe/prune volumes aggregate into m.
func microBloomReplay(sf float64, seed uint64, dags map[string]*plan.DAG, m map[string]float64) error {
	reg := obs.NewRegistry()
	base := mapreduce.New(mapreduce.Config{BlockSize: 64 << 10, NumReducers: 4})
	pruned := mapreduce.New(mapreduce.Config{
		BlockSize: 64 << 10, NumReducers: 4,
		BloomPrune: true, Observer: &obs.Observer{Metrics: reg},
	})
	for _, s := range dataset.TPCH() {
		rel := dataset.Generate(s, sf, seed)
		base.Register(rel)
		pruned.Register(rel)
	}
	var queries, mismatches int
	var probed, prunedRows int64
	for _, name := range sortedNames(dags) {
		want, err := base.RunQuery(dags[name])
		if err != nil {
			return fmt.Errorf("%s exact: %w", name, err)
		}
		got, err := pruned.RunQuery(dags[name])
		if err != nil {
			return fmt.Errorf("%s pruned: %w", name, err)
		}
		queries++
		if !microFrameEqual(got.Final, want.Final) {
			mismatches++
			fmt.Fprintf(os.Stderr, "micro: %s: pruned output diverged (false negative)\n", name)
		}
		for _, s := range got.Stats {
			probed += s.BloomProbed
			prunedRows += s.BloomPruned
		}
	}
	share := 0.0
	if probed > 0 {
		share = float64(prunedRows) / float64(probed)
	}
	snap := reg.Snapshot()
	if int64(snap.Counters[obs.MSketchBloomProbes]) != probed {
		return fmt.Errorf("observer probe counter %v != engine stats %d",
			snap.Counters[obs.MSketchBloomProbes], probed)
	}
	m["bloom_queries"], m["bloom_mismatches"] = float64(queries), float64(mismatches)
	m["bloom_probed"], m["bloom_pruned"], m["bloom_prune_share"] = float64(probed), float64(prunedRows), share
	return nil
}

// microBench parses the benchmark output, replays the sketch-accuracy
// checks, and gates both: accuracy always, per-op costs against the
// baseline when one is given.
func microBench(c config) error {
	m := map[string]float64{}
	if c.microIn != "" {
		data, err := os.ReadFile(c.microIn)
		if err != nil {
			return fmt.Errorf("reading bench output: %w", err)
		}
		if m = parseBenchText(string(data)); len(m) == 0 {
			return fmt.Errorf("no Benchmark lines found in %s", c.microIn)
		}
	}
	benchmarks := len(m) / 3

	cat := catalog.CollectAll(dataset.TPCH(), c.microSF, c.seed, catalog.DefaultBuckets)
	cols, worst := microHLLAccuracy(cat)
	m["hll_columns"], m["hll_max_rel_err"] = float64(cols), worst

	dags, err := compileTPCH()
	if err != nil {
		return err
	}
	if err := microEstimatorDivergence(cat, dags, m); err != nil {
		return err
	}
	if err := microBloomReplay(c.microSF, c.seed, dags, m); err != nil {
		return err
	}

	fmt.Printf("micro: %d benchmarks, HLL max rel err %.4f over %d columns\n", benchmarks, worst, cols)
	fmt.Printf("micro: estimator divergence over %g jobs: |ΔIS| ≤ %.4f |ΔFS| ≤ %.4f, out-rows rel ≤ %.4f (%g sketch cols)\n",
		m["estimator_jobs"], m["estimator_max_is_diff"], m["estimator_max_fs_diff"],
		m["estimator_max_outrows_rel_err"], m["estimator_sketch_cols"])
	fmt.Printf("micro: bloom replay over %g queries: %g probed, %g pruned (%.1f%%), %g mismatches\n",
		m["bloom_queries"], m["bloom_probed"], m["bloom_pruned"], 100*m["bloom_prune_share"], m["bloom_mismatches"])

	r := newReport("micro", map[string]any{"seed": c.seed, "sf": c.microSF}, m)
	r.Gates = microGates(c.out.base)
	return c.out.finish(r)
}

// microGates: the accuracy gates depend only on the seed and scale
// factor, not on machine speed, so they always apply. Against a
// baseline, every baseline benchmark must still exist, allocs/op may
// never regress beyond 5% integer slack (so zero-alloc benchmarks stay
// strict: 0 + 0/20 = 0), and ns/op may drift up to microTimeGate×.
func microGates(base *report) []gate {
	g := []gate{{"hll_max_rel_err", "<=", microHLLGate}, {"bloom_mismatches", "<=", 0}}
	if base == nil {
		return g
	}
	var names []string
	for k := range base.Metrics {
		if name, ok := strings.CutSuffix(k, ".allocs_per_op"); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		allocs := int64(base.Metrics[name+".allocs_per_op"])
		g = append(g, gate{name + ".allocs_per_op", "<=", float64(allocs + allocs/20)})
		if ns := base.Metrics[name+".ns_per_op"]; ns > 0 {
			g = append(g, gate{name + ".ns_per_op", "<=", ns * microTimeGate})
		}
	}
	return g
}
