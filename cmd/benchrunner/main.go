// Command benchrunner regenerates every table and figure of the paper's
// evaluation (Section 5) from the reproduction's simulated substrate and
// prints them in the paper's row/series layout, and hosts the serving,
// network, shard, micro, fault and learning benchmarks. Every
// experiment writes one report schema (BENCH_<exp>.json) and is gated
// by one check; see report.go.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp table3 -queries 1000
//	benchrunner -exp fig8 -gap 12
//	benchrunner -exp net -baseline testdata/bench_baseline/BENCH_net.json
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"saqp"
)

// config is the parsed command line; each experiment reads the fields
// it uses.
type config struct {
	exp                            string
	queries, conc, cache, workers  int
	shards, faultRounds            int
	learnWindow, learnMinSamples   int
	learnPointEvery                int
	qps, gap, learnMargin, microSF float64
	seed, faultSeed                uint64
	sched, admin, spans, microIn   string
	csvDir, traceOut, promOut      string
	timeout, linger                time.Duration
	out                            output
}

// benches are the -exp values that are not paper artifacts.
var benches = map[string]func(config) error{
	"serve": serveBench, "net": netBench, "shard": shardBench,
	"micro": microBench, "fault": faultBench, "learn": learnBench,
}

// defaults are each experiment's values for the shared flags left at
// 0; "paper" covers every table and figure.
var defaults = map[string]struct {
	queries, conc, cache int
	gap                  float64
}{
	"paper": {queries: 240, gap: 12},
	"serve": {queries: 1000, conc: 16, cache: 256},
	"net":   {queries: 400, conc: 8, cache: 256},
	"shard": {queries: 4000, conc: 16, cache: 64},
	"learn": {queries: 120},
	"fault": {gap: 20},
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: a paper artifact (table2|table3|table4|table5|fig2|fig5|fig6|fig7|fig8|all) or a benchmark (serve|net|shard|micro|fault|learn)")
		queries  = flag.Int("queries", 0, "corpus size for the paper artifacts (the paper used 1000), or submissions per run (0 = default: paper 240, serve 1000, net 400, shard 4000 per phase, learn 120)")
		gap      = flag.Float64("gap", 0, "mean Poisson inter-arrival gap in seconds (0 = default: fig8 12, fault 20)")
		seed     = flag.Uint64("seed", 2018, "experiment seed")
		csvDir   = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the simulated runs (fig2/fig8) to this file")
		promOut  = flag.String("metrics", "", "write Prometheus text-format metrics to this file")
		benchDir = flag.String("bench-out", "", "write the machine-readable BENCH_<exp>.json report into this directory")
		baseline = flag.String("baseline", "", "print this run against a committed BENCH_<exp>.json; its numbers set the baseline-relative gates (net p99, micro ns/op and allocs/op)")
		rebase   = flag.Bool("rebase", false, "rewrite -baseline from this run (when its other gates pass) instead of gating against it")

		conc    = flag.Int("concurrency", 0, "serve/net/shard: submitter goroutines, one client connection each for net (0 = default: serve 16, net 8, shard 16)")
		qps     = flag.Float64("qps", 0, "serve/net: open-loop arrival rate in queries/sec (0 = closed-loop)")
		workers = flag.Int("workers", 4, "serve/net: simulator pool size")
		cache   = flag.Int("cache", 0, "serve/net/shard: plan/estimate cache entries per engine (0 = default: serve 256, net 256, shard 64)")
		sched   = flag.String("sched", "SWRD", "serve/net/shard/fault: scheduler (HCS|HFS|SWRD)")
		timeout = flag.Duration("serve-timeout", 0, "serve: per-query wall-clock timeout (0 = none)")
		admin   = flag.String("admin", "", "serve: host the live introspection endpoint (/metrics /spans /slo /debug/pprof) on this address for the benchmark's duration")
		linger  = flag.Duration("admin-linger", 0, "serve: keep the server and admin endpoint alive this long after the benchmark finishes (SIGINT/SIGTERM ends it early)")
		spans   = flag.String("spans", "", "serve: record request span trees and write them as JSON to this file")
		shards  = flag.Int("shard-shards", 4, "shard: primary/replica pairs in the sharded phase")

		faultSeed   = flag.Uint64("fault-seed", 2018, "fault/shard: seed of the injected fault plan")
		faultRounds = flag.Int("fault-rounds", 3, "fault: copies of the canonical TPC-H set replayed")

		learnWindow     = flag.Int("learn-window", 100, "learn: promotion error-window length")
		learnMinSamples = flag.Int("learn-min-samples", 50, "learn: challenger warm-up before the first promotion")
		learnMargin     = flag.Float64("learn-margin", 0.05, "learn: promotion margin (challenger must beat champion by this fraction)")
		learnPointEvery = flag.Int("learn-point-every", 25, "learn: job-sample stride between convergence points")

		microIn = flag.String("micro-in", "", "micro: parse this `go test -bench` text output (\"\" skips the benchmark gates)")
		microSF = flag.Float64("micro-sf", 0.01, "micro: TPC-H scale factor for the accuracy replay")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"benchrunner regenerates the paper's evaluation artifacts (Tables 2-5,\n"+
				"Figures 2 and 5-8) from the simulated substrate, and hosts the serving,\n"+
				"network, shard, micro, fault and online-learning benchmarks. Every\n"+
				"experiment writes one report schema and exits nonzero when a gate fails.\n\n"+
				"usage: benchrunner [flags]\n\n"+
				"examples:\n"+
				"  benchrunner -exp all\n"+
				"  benchrunner -exp table3 -queries 1000\n"+
				"  benchrunner -exp serve -concurrency 32 -qps 50\n"+
				"  benchrunner -exp net -concurrency 16 -queries 800\n"+
				"  benchrunner -exp shard -baseline testdata/bench_baseline/BENCH_shard.json\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	d, ok := defaults[*exp]
	if !ok {
		d = defaults["paper"]
	}
	orDefault := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	c := config{
		exp: *exp, queries: orDefault(*queries, d.queries), conc: orDefault(*conc, d.conc),
		cache: orDefault(*cache, d.cache), workers: *workers, shards: *shards, faultRounds: *faultRounds,
		learnWindow: *learnWindow, learnMinSamples: *learnMinSamples, learnPointEvery: *learnPointEvery,
		qps: *qps, gap: *gap, learnMargin: *learnMargin, microSF: *microSF,
		seed: *seed, faultSeed: *faultSeed,
		sched: *sched, admin: *admin, spans: *spans, microIn: *microIn,
		csvDir: *csvDir, traceOut: *traceOut, promOut: *promOut,
		timeout: *timeout, linger: *linger,
		out: output{dir: *benchDir},
	}
	if c.gap == 0 {
		c.gap = d.gap
	}
	if err := setup(&c, *baseline, *rebase); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}
	run, ok := benches[c.exp]
	if !ok {
		run = paperBench
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// setup creates the output directories and loads the baseline, or
// marks it for rewriting when rebasing.
func setup(c *config, baseline string, rebase bool) error {
	for _, dir := range []string{c.csvDir, c.out.dir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	switch {
	case rebase && baseline == "":
		return fmt.Errorf("-rebase needs -baseline")
	case rebase:
		c.out.rebase = baseline
	case baseline != "":
		base, err := load(baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if base.Experiment != c.exp {
			return fmt.Errorf("baseline %s is a %q report, not %q", baseline, base.Experiment, c.exp)
		}
		c.out.base = base
	}
	return nil
}

// writeCSV writes rows (first row = header) to <dir>/<name>.csv; a no-op
// when dir is empty.
func writeCSV(dir, name string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// f2 formats a float for CSV.
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// paperBench regenerates the paper's tables and figures, writing one
// report per artifact: its wall time plus the metrics registry after it
// ran. Counters accumulate across a multi-experiment invocation, so
// each registry snapshot is cumulative up to and including its
// experiment.
func paperBench(c config) error {
	cfg := saqp.DefaultExperimentConfig()
	cfg.CorpusQueries = c.queries
	cfg.Seed = c.seed

	var traceFile *os.File
	if c.traceOut != "" || c.promOut != "" || c.out.dir != "" {
		var sink *saqp.TraceSink
		if c.traceOut != "" {
			f, err := os.Create(c.traceOut)
			if err != nil {
				return err
			}
			traceFile = f
			sink = saqp.NewTraceSink(f)
		}
		cfg.Observer = saqp.NewObserver(sink)
	}

	needModels := map[string]bool{
		"table3": true, "table4": true, "table5": true,
		"fig2": true, "fig6": true, "fig7": true, "fig8": true, "all": true,
	}
	var art *saqp.TrainedArtifacts
	if needModels[c.exp] {
		fmt.Printf("Building corpus (%d queries) and training models...\n\n", c.queries)
		var err error
		art, err = saqp.BuildTrainedArtifacts(cfg)
		if err != nil {
			return err
		}
	}

	csvDir := c.csvDir
	runners := []struct {
		name string
		fn   func() error
	}{
		{"table2", func() error { return table2(csvDir) }},
		{"fig5", func() error { return fig5(csvDir) }},
		{"table3", func() error { return table3(art, csvDir) }},
		{"fig6", func() error { return fig6(art, csvDir) }},
		{"table4", func() error { return table45(art, false, csvDir) }},
		{"table5", func() error { return table45(art, true, csvDir) }},
		{"fig7", func() error { return fig7(art, cfg, csvDir) }},
		{"fig2", func() error { return fig2(art, cfg, csvDir) }},
		{"fig8", func() error { return fig8(art, cfg, c.gap, csvDir) }},
	}
	ran := false
	for _, r := range runners {
		if c.exp != "all" && c.exp != r.name {
			continue
		}
		begin := time.Now()
		if err := r.fn(); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		rep := newReport(r.name, map[string]any{"corpus_queries": c.queries, "seed": c.seed},
			map[string]float64{"wall_seconds": time.Since(begin).Seconds()})
		if cfg.Observer != nil {
			snap := cfg.Observer.Metrics.Snapshot()
			rep.Registry = &snap
		}
		if err := c.out.finish(rep); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", c.exp)
	}
	if err := cfg.Observer.Close(); err != nil {
		return err
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("\nWrote trace to %s (open in ui.perfetto.dev)\n", c.traceOut)
	}
	if c.promOut != "" {
		f, err := os.Create(c.promOut)
		if err != nil {
			return err
		}
		if err := cfg.Observer.Metrics.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("Wrote metrics to %s\n", c.promOut)
	}
	return nil
}

func header(s string) {
	fmt.Printf("\n================ %s ================\n", s)
}

func table2(csvDir string) error {
	header("Table 2: Composition of Bing and Facebook Workloads")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Bin\tInput Size\tBing\tFacebook")
	rows := [][]string{{"bin", "input_size", "bing", "facebook"}}
	for _, r := range saqp.ReproduceTable2() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", r.Bin, r.InputDesc, r.Bing, r.Facebook)
		rows = append(rows, []string{strconv.Itoa(r.Bin), r.InputDesc,
			strconv.Itoa(r.Bing), strconv.Itoa(r.Facebook)})
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(csvDir, "table2", rows)
}

func fig5(csvDir string) error {
	header("Fig 5 / Section 3.2: Selectivity Estimation for Modified TPC-H Q11 (SF 1)")
	rows, err := saqp.ReproduceFig5()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Job\tType\tIS\tFS\tOutput Tuples")
	out := [][]string{{"job", "type", "is", "fs", "out_tuples"}}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.0f\n", r.ID, r.Type, r.IS, r.FS, r.OutRows)
		out = append(out, []string{r.ID, r.Type, f2(r.IS), f2(r.FS), f2(r.OutRows)})
	}
	w.Flush()
	fmt.Println("(paper: nation predicate ≈96% relayed along the tree; groupby cardinality ≈200,000)")
	return writeCSV(csvDir, "fig5", out)
}

func table3(art *saqp.TrainedArtifacts, csvDir string) error {
	header("Table 3: Accuracy Statistics — Job Time Prediction (Eq. 8)")
	res := saqp.ReproduceTable3(art)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Types\tR-squared accuracy\tAvg Error\t(n)")
	for _, r := range res.TrainRows {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\t%d\n", r.Op, 100*r.RSquared, 100*r.AvgError, r.N)
	}
	fmt.Fprintf(w, "TestSet\tN/A\t%.2f%%\t%d\n", 100*res.TestSetAvgError, res.TestSetJobs)
	w.Flush()
	fmt.Println("(paper: Groupby 96.75%/8.63%, Join 92.71%/14.40%, Extract 84.64%/9.38%, TestSet 13.98%)")
	out := [][]string{{"types", "r_squared", "avg_error", "n"}}
	for _, r := range res.TrainRows {
		out = append(out, []string{r.Op, f2(r.RSquared), f2(r.AvgError), strconv.Itoa(r.N)})
	}
	out = append(out, []string{"TestSet", "", f2(res.TestSetAvgError), strconv.Itoa(res.TestSetJobs)})
	return writeCSV(csvDir, "table3", out)
}

func table45(art *saqp.TrainedArtifacts, reduce bool, csvDir string) error {
	name, paper, csvName := "Table 4: Map Task Time Prediction (training set)",
		"(paper: Join 85.6%/16.27%, Groupby 92.4%/24.8%, Extract 92.74%/14.5%, Together 87.05%/20.5%)",
		"table4"
	rows := saqp.ReproduceTable4(art)
	if reduce {
		name = "Table 5: Reduce Task Time Prediction (training set)"
		paper = "(paper: Join 85.83%/14.23%, Groupby 98.82%/4.67%, Extract 90.03%/6.18%, Together 90.68%/7.4%)"
		csvName = "table5"
		rows = saqp.ReproduceTable5(art)
	}
	header(name)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Types\tR-squared accuracy\tAvg Error\t(n)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\t%d\n", r.Op, 100*r.RSquared, 100*r.AvgError, r.N)
	}
	w.Flush()
	fmt.Println(paper)
	out := [][]string{{"types", "r_squared", "avg_error", "n"}}
	for _, r := range rows {
		out = append(out, []string{r.Op, f2(r.RSquared), f2(r.AvgError), strconv.Itoa(r.N)})
	}
	return writeCSV(csvDir, csvName, out)
}

func fig6(art *saqp.TrainedArtifacts, csvDir string) error {
	header("Fig 6: Accuracy of Job Execution Prediction (test set scatter)")
	pts := saqp.ReproduceFig6(art)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Actual < pts[j].Actual })
	// Render the scatter as binned actual→predicted quantiles.
	fmt.Println("actual(s)  predicted(s)  operator   (every 8th point; perfect prediction = equal columns)")
	out := [][]string{{"actual_sec", "predicted_sec", "operator"}}
	for i, p := range pts {
		if i%8 == 0 {
			fmt.Printf("%9.1f  %12.1f  %s\n", p.Actual, p.Predicted, p.Operator)
		}
		out = append(out, []string{f2(p.Actual), f2(p.Predicted), p.Operator})
	}
	return writeCSV(csvDir, "fig6", out)
}

func fig7(art *saqp.TrainedArtifacts, cfg saqp.ExperimentConfig, csvDir string) error {
	header("Fig 7: Accuracy of Query Response Time Prediction (100 GB queries)")
	res, err := saqp.ReproduceFig7(art, cfg, 15)
	if err != nil {
		return err
	}
	fmt.Println("actual(s)  predicted(s)")
	out := [][]string{{"actual_sec", "predicted_sec"}}
	for _, p := range res.Points {
		fmt.Printf("%9.1f  %12.1f\n", p.Actual, p.Predicted)
		out = append(out, []string{f2(p.Actual), f2(p.Predicted)})
	}
	fmt.Printf("average prediction error: %.2f%% (paper: 8.3%%)\n", 100*res.AvgError)
	return writeCSV(csvDir, "fig7", out)
}

func fig2(art *saqp.TrainedArtifacts, cfg saqp.ExperimentConfig, csvDir string) error {
	header("Fig 1-2: Motivation — QA(10GB), QB(100GB), QC(10GB) under HCS vs SWRD")
	out := [][]string{{"scheduler", "query", "response_sec", "alone_sec", "slowdown"}}
	for _, sch := range []string{saqp.SchedulerHCS, saqp.SchedulerSWRD} {
		res, err := saqp.ReproduceFig2(sch, art, cfg)
		if err != nil {
			return err
		}
		for _, q := range res.Queries {
			out = append(out, []string{sch, q.Name, f2(q.Response), f2(q.Alone), f2(q.Slowdown)})
		}
		fmt.Printf("\n%s:\n", sch)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  query\tresponse(s)\talone(s)\tslowdown\tjob spans (start-end s)")
		for _, q := range res.Queries {
			spans := ""
			for i, sp := range q.JobSpans {
				if i > 0 {
					spans += "  "
				}
				spans += fmt.Sprintf("%s[%.0f-%.0f]", q.JobLabels[i], sp[0], sp[1])
			}
			fmt.Fprintf(w, "  %s\t%.1f\t%.1f\t%.2fx\t%s\n", q.Name, q.Response, q.Alone, q.Slowdown, spans)
		}
		w.Flush()
	}
	fmt.Println("\n(paper: HCS delays the small queries ~3x through resource thrashing)")
	return writeCSV(csvDir, "fig2", out)
}

func fig8(art *saqp.TrainedArtifacts, cfg saqp.ExperimentConfig, gap float64, csvDir string) error {
	header("Fig 8: Average Query Response Times — Bing & Facebook Workloads")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tscheduler\tavg(s)\tp50(s)\tp95(s)\tbin1\tbin2\tbin3\tbin4\tbin5\tmakespan(s)")
	out := [][]string{{"workload", "scheduler", "avg_sec", "p50_sec", "p95_sec",
		"bin1", "bin2", "bin3", "bin4", "bin5", "makespan_sec"}}
	for _, mix := range []string{"bing", "facebook"} {
		rs, err := saqp.ReproduceFig8(mix, art, cfg, gap)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		for _, r := range rs {
			m[r.Scheduler] = r.AvgResponseSec
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\n",
				r.Workload, r.Scheduler, r.AvgResponseSec, r.P50Sec, r.P95Sec,
				r.AvgByBin[1], r.AvgByBin[2], r.AvgByBin[3], r.AvgByBin[4], r.AvgByBin[5],
				r.Makespan)
			out = append(out, []string{r.Workload, r.Scheduler, f2(r.AvgResponseSec),
				f2(r.P50Sec), f2(r.P95Sec), f2(r.AvgByBin[1]), f2(r.AvgByBin[2]),
				f2(r.AvgByBin[3]), f2(r.AvgByBin[4]), f2(r.AvgByBin[5]), f2(r.Makespan)})
		}
		fmt.Fprintf(w, "%s\tSWRD gain\tvs HFS %.1f%%, vs HCS %.1f%%\t\t\t\t\t\t\t\t\n",
			mix, 100*(1-m["SWRD"]/m["HFS"]), 100*(1-m["SWRD"]/m["HCS"]))
	}
	w.Flush()
	fmt.Println("(paper: SWRD vs HFS -40.2%/-43.9%; vs HCS -72.8%/-27.4%)")
	return writeCSV(csvDir, "fig8", out)
}
