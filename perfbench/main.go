// Command perfbench is the repository's benchmark. It drives one of three
// serving workloads (tpch-repeat, adhoc-learn, cluster-wire) through the
// public saqp facade with two closed-loop clients, checks every served
// result, and prints the end-to-end metrics of an untraced run or, with
// --trace 1, the per-layer metrics of a traced run. End-to-end timings are
// scaled to nominal host speed by a reference kernel timed beside them
// (calib.go). The last line of its output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tpch-repeat --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

const (
	// procs is the GOMAXPROCS every run uses. On a 2-vCPU virtual machine
	// shared with other tenants, waking a goroutine on the other vCPU
	// costs a hypervisor round trip whose price follows the host's load:
	// at GOMAXPROCS=2, cluster-wire throughput spread 0.46 (IQR/median)
	// over five seeds and per-request CPU swung 25% within one run. With
	// one P that workload ran faster and its spread fell to 0.05-0.2,
	// depending on how much the host's load drifted during the runs.
	// Parallel scaling is therefore outside what this benchmark measures.
	procs = 1
	// setupReps is how often an untraced run builds the whole system;
	// setup_s is the median.
	setupReps = 7
	// sliceLen is the length of the slices an untraced run's measured
	// phase is cut into. A gauge reading follows each slice, and
	// throughput and CPU per query are medians over slices, so a burst
	// of load from outside the benchmark moves one slice, not the result.
	sliceLen = time.Second
	// replayMax caps the layer replay's requests, and spansKept the
	// request trees per recorder written to the report.
	replayMax = 20000
	spansKept = 1000
	// p99Beyond is the sample count wanted beyond p99; a run that leaves
	// fewer warns, one that leaves fewer than minBeyond fails.
	p99Beyond = 1000
	// watchdog ends a run that has hung, well inside the 180 s a run may
	// take.
	watchdog = 170 * time.Second
)

// raceEnabled is set by race.go in a -race build. Such a binary refuses
// to produce numbers: the detector slows every memory access several-fold.
var raceEnabled bool

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records the configuration a result was measured under.
type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Race       bool   `json:"race"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
}

func main() {
	var (
		w       = flag.String("workload", wTPCH, "workload: tpch-repeat, adhoc-learn or cluster-wire")
		seed    = flag.Uint64("seed", 1, "workload seed; the request stream is a pure function of it")
		seconds = flag.Int("seconds", 25, "measured seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for the result and span files")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to measure a -race build")
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || !slices.Contains(workloads, *w) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload in %v, --seconds >= 1, --trace 0 or 1\n", workloads)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; a completion was probably lost\n", watchdog)
		os.Exit(3)
	})
	e := env{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Race: raceEnabled, OS: runtime.GOOS, Arch: runtime.GOARCH,
		Workload: *w, Seed: *seed, Seconds: *seconds, Trace: *traced == 1, Commit: commit(),
	}
	envJSON, err := json.Marshal(e)
	if err != nil {
		fail(err)
	}
	fmt.Printf("env %s\n", envJSON)

	d := time.Duration(*seconds) * time.Second
	var r result
	var report map[string]any
	if e.Trace {
		r, report, err = traceRun(*w, *seed, d)
	} else {
		r, report, err = endToEnd(*w, *seed, d)
	}
	if err != nil {
		fail(err)
	}
	report["env"] = e
	report["result"] = r
	if err := writeJSON(*out, fmt.Sprintf("%s-seed%d-trace%d.json", *w, *seed, *traced), report); err != nil {
		fail(err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// fail reports an error that left no result and exits nonzero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// prepared is a workload ready to measure.
type prepared struct {
	st     *stream
	t      *target
	b      *bench
	setups []float64 // seconds per setup
	g      *gauge    // read around each setup
}

// prepare builds the stream, then sets the system up reps times, keeping
// the last one. The gauge is read before each set-up and after the last;
// a reading's garbage collection also starts each set-up from the same
// clean heap.
func prepare(w string, seed uint64, reps int) (*prepared, error) {
	st, err := newStream(w, seed)
	if err != nil {
		return nil, err
	}
	p := &prepared{st: st, g: newGauge()}
	for i := 0; i < reps; i++ {
		p.g.read()
		t0 := time.Now()
		t, err := setup(w)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := t.close(); err != nil {
				return nil, err
			}
			continue
		}
		p.t = t
	}
	p.g.read()
	chk, err := newChecker(w, p.t.f, st)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("expectations: %w", err), p.t.close())
	}
	p.b = &bench{t: p.t, st: st, chk: chk}
	return p, nil
}

// warmup is how long clients run before any measurement, so caches fill
// and the heap reaches its steady size.
func warmup(d time.Duration) time.Duration { return max(time.Second, d/10) }

// endToEnd measures the untraced run: a warm-up, then d cut into slices
// with a gauge reading before the first and after each. Every timing is
// reported at nominal host speed: each slice's throughput, CPU time and
// latencies, and each set-up's time, are divided by the slowdown read
// around it. The unscaled figures are printed too.
func endToEnd(w string, seed uint64, d time.Duration) (result, map[string]any, error) {
	ctx := context.Background()
	p, err := prepare(w, seed, setupReps)
	if err != nil {
		return result{}, nil, err
	}
	b := p.b
	via := p.t.defaultRoute()
	if err := resetPeakRSS(); err != nil {
		return result{}, nil, errors.Join(err, p.t.close())
	}
	b.run(ctx, clients, warmup(d), via, false)
	g := newGauge()
	g.read()
	var m phaseResult
	var rawLat hist
	var qps, cpuUS, rawQPS, rawCPU []float64
	for i := 0; i < max(1, int(d/sliceLen)); i++ {
		s := b.run(ctx, clients, min(sliceLen, d), via, false)
		g.read()
		wall, cpu := g.around(i)
		m.tally.add(s.tally)
		m.lat.mergeScaled(&s.lat, 1/wall)
		rawLat.merge(&s.lat)
		m.predErr.merge(&s.predErr)
		m.elapsed += s.elapsed
		qps, cpuUS = append(qps, s.qps()*wall), append(cpuUS, s.cpuUS()/cpu)
		rawQPS, rawCPU = append(rawQPS, s.qps()), append(rawCPU, s.cpuUS())
	}
	var setups []float64
	for i, s := range p.setups {
		wall, _ := p.g.around(i)
		setups = append(setups, s/wall)
	}
	peak, peakErr := peakRSSMB()
	r, checks := finish(p)
	if err := errors.Join(peakErr, p.t.close()); err != nil {
		return r, nil, err
	}

	p50, beyond50, err := m.lat.quantile(0.50, minBeyond)
	if err != nil {
		return r, nil, err
	}
	p99, beyond99, err := m.lat.quantile(0.99, minBeyond)
	if err != nil {
		return r, nil, err
	}
	if beyond99 < p99Beyond {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p99 (want %d); lengthen --seconds\n", beyond99, p99Beyond)
	}
	predErr, _, err := m.predErr.quantile(0.50, minBeyond)
	if err != nil {
		return r, nil, err
	}
	rawP50, _, err := rawLat.quantile(0.50, minBeyond)
	if err != nil {
		return r, nil, err
	}
	rawP99, _, err := rawLat.quantile(0.99, minBeyond)
	if err != nil {
		return r, nil, err
	}
	r.Metrics = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_qps":   {median(qps), "1/s"},
		"latency_p50_us":   {p50 / 1e3, "us"},
		"latency_p99_us":   {p99 / 1e3, "us"},
		"pred_err_p50":     {predErr / 1e9, "ratio"},
		"cpu_us_per_query": {median(cpuUS), "us"},
		"mem_peak_mb":      {peak, "MB"},
	}
	raw := map[string]metric{
		"setup_s":          {median(p.setups), "s"},
		"throughput_qps":   {median(rawQPS), "1/s"},
		"latency_p50_us":   {rawP50 / 1e3, "us"},
		"latency_p99_us":   {rawP99 / 1e3, "us"},
		"cpu_us_per_query": {median(rawCPU), "us"},
	}
	printMetrics(r.Metrics)
	fmt.Printf("gauge: median host slowdown %.4f wall, %.4f cpu while serving; %.4f wall around set-ups\n",
		median(g.wall), median(g.cpu), median(p.g.wall))
	fmt.Println("unscaled:")
	printMetrics(raw)
	fmt.Printf("samples %d completions in %.3f s; %d beyond p50, %d beyond p99; setups %v s\n",
		m.completed, m.elapsed.Seconds(), beyond50, beyond99, p.setups)
	fmt.Printf("error_rate %g ratio (%d failed of %d attempted)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	printChecks(checks)
	return r, map[string]any{"checks": checks, "setups_s": p.setups, "unscaled": raw,
		"slices":         map[string][]float64{"qps": rawQPS, "cpu_us": rawCPU},
		"gauge_slowdown": map[string][]float64{"setup_wall": p.g.wall, "wall": g.wall, "cpu": g.cpu}}, nil
}

// finish runs the whole-run correctness checks: every served result
// passed its check, no request failed, and the engines completed exactly
// what the clients attempted and saw complete.
func finish(p *prepared) (result, []string) {
	tot, chk := &p.b.totals, p.b.chk
	st := p.t.stats()
	var bad []string
	if n := chk.bad.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d results failed their check; first: %s", n, chk.firstMismatch()))
	}
	if tot.errs > 0 {
		bad = append(bad, fmt.Sprintf("%d requests failed; first: %v", tot.errs, tot.firstErr))
	}
	if tot.completed != tot.attempted || int64(st.Completed) != tot.completed {
		bad = append(bad, fmt.Sprintf("exactly-once broken: %d attempted, %d completions seen, engines completed %d",
			tot.attempted, tot.completed, st.Completed))
	}
	if st.Errors+st.Rejected+st.Canceled > 0 {
		bad = append(bad, fmt.Sprintf("engines report %d errors, %d rejected, %d canceled", st.Errors, st.Rejected, st.Canceled))
	}
	return result{
		Correct:   len(bad) == 0,
		Attempted: tot.attempted,
		Failed:    tot.errs + chk.bad.Load(),
	}, bad
}

// traceRun measures the traced run: an untraced phase as the overhead
// baseline, a traced phase of full-stack request spans, a single-client
// phase for trace.closure, and the single-goroutine layer replay.
func traceRun(w string, seed uint64, d time.Duration) (result, map[string]any, error) {
	ctx := context.Background()
	p, err := prepare(w, seed, 1)
	if err != nil {
		return result{}, nil, err
	}
	b, t := p.b, p.t
	via := t.defaultRoute()
	frac := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	b.run(ctx, clients, warmup(d), via, false)
	base := b.run(ctx, clients, frac(0.3), via, false)
	// Full-stack spans: the clients' own path, and for cluster-wire also
	// the coordinator path, whose serve.submit/serve.wait the wire hides.
	tracedShare := 0.3
	if t.cs != nil {
		tracedShare = 0.2
	}
	traced := b.run(ctx, clients, frac(tracedShare), via, true)
	recs := traced.recs
	if t.cs != nil {
		recs = append(recs, b.run(ctx, clients, frac(0.1), viaCoordinator, true).recs...)
	}
	single := b.run(ctx, 1, frac(0.15), via, false)
	rec := newRecorder(time.Now(), 1<<50)
	rp, err := newReplayer(t, rec)
	if err != nil {
		return result{}, nil, errors.Join(err, t.close())
	}
	replayErr := rp.replay(ctx, p.st, frac(0.25), replayMax)
	promotions := 0
	if L := t.learner(); L != nil {
		promotions = len(L.Promotions())
	}
	r, checks := finish(p)
	if err := errors.Join(replayErr, t.close()); err != nil {
		return r, nil, err
	}

	layers := layerTimes(rec.spans)
	perReq := func(name string, unit float64) float64 {
		if lt := layers[name]; lt != nil {
			return float64(lt.Self) / unit / float64(rp.requests)
		}
		return 0
	}
	stack := map[string]*layerTime{}
	for _, rc := range recs {
		for name, lt := range layerTimes(rc.spans) {
			if stack[name] == nil {
				stack[name] = &layerTime{}
			}
			s := stack[name]
			s.Calls, s.Self, s.Total = s.Calls+lt.Calls, s.Self+lt.Self, s.Total+lt.Total
		}
	}
	meanUS := func(name string) float64 {
		if lt := stack[name]; lt != nil && lt.Calls > 0 {
			return float64(lt.Total) / 1e3 / float64(lt.Calls)
		}
		return 0
	}
	closure := 0.0
	for name := range layers {
		if name != spanReplay {
			closure += perReq(name, 1e3)
		}
	}
	singleMean := ratio(float64(single.latSum)/1e3, float64(single.completed))
	shareMax := 1.0
	if t.cs != nil {
		shareMax = 0
		for _, n := range rp.shards {
			shareMax = max(shareMax, float64(n)/float64(rp.requests))
		}
	}
	lookups := float64(base.after.CacheHits - base.before.CacheHits + base.after.CacheMisses - base.before.CacheMisses)
	done := float64(base.completed)
	wait := meanUS("serve.wait")
	r.Metrics = map[string]metric{
		"query.parse_us":                  {perReq(spanParse, 1e3), "us"},
		"plan.compile_us":                 {perReq(spanCompile, 1e3), "us"},
		"selectivity.estimate_us":         {perReq(spanEstimate, 1e3), "us"},
		"selectivity.jobs_per_query":      {float64(rp.jobs) / float64(rp.requests), "count"},
		"predict.score_us":                {perReq(spanScore, 1e3), "us"},
		"cluster.simulate_us":             {perReq(spanSimulate, 1e3), "us"},
		"cluster.tasks_per_query":         {float64(rp.tasks) / float64(rp.requests), "count"},
		"learn.feedback_us":               {perReq(spanFeedback, 1e3), "us"},
		"learn.observations_per_query":    {float64(rp.observations) / float64(rp.requests), "count"},
		"learn.promotions":                {float64(promotions), "count"},
		"serve.submit_us":                 {meanUS("serve.submit"), "us"},
		"serve.wait_us":                   {wait, "us"},
		"serve.queue_wait_us":             {wait - perReq(spanSimulate, 1e3) - perReq(spanFeedback, 1e3), "us"},
		"serve.cache_hit_ratio":           {ratio(float64(base.after.CacheHits-base.before.CacheHits), lookups), "ratio"},
		"serve.cache_evictions_per_query": {ratio(float64(base.after.CacheEvictions-base.before.CacheEvictions), done), "count"},
		"shardserve.route_us":             {perReq(spanRoute, 1e3), "us"},
		"shardserve.shard_share_max":      {shareMax, "ratio"},
		"net.submit_rtt_us":               {meanUS("net.submit_rtt"), "us"},
		"net.wait_rtt_us":                 {meanUS("net.wait_rtt"), "us"},
		"proto.frame_us":                  {perReq(spanFrame, 1e3), "us"},
		"obs.hooks_ns":                    {perReq(spanHooks, 1), "ns"},
		"proc.allocs_per_query":           {ratio(float64(base.mallocs), done), "count"},
		"proc.alloc_bytes_per_query":      {ratio(float64(base.bytes), done), "B"},
		"proc.gc_cpu_frac":                {ratio(base.gcCPU, base.allCPU), "ratio"},
		"trace.closure":                   {ratio(closure, singleMean), "ratio"},
		"trace.overhead":                  {1 - ratio(traced.qps(), base.qps()), "ratio"},
	}
	printMetrics(r.Metrics)
	fmt.Printf("replay: %d requests; single-client mean %.2f us; untraced %.0f q/s, traced %.0f q/s\n",
		rp.requests, singleMean, base.qps(), traced.qps())
	printLayers("replay self time per request", layers, rp.requests)
	printLayers("full-stack spans per request", stack, stack["request"].calls())
	printChecks(checks)

	spans := map[string][]span{"replay": firstTraces(rec.spans, spansKept)}
	for i, rc := range recs {
		spans[fmt.Sprintf("full_stack_%d", i)] = firstTraces(rc.spans, spansKept)
	}
	return r, map[string]any{"checks": checks, "spans": spans}, nil
}

// calls is the call count, 0 for a missing entry.
func (lt *layerTime) calls() int64 {
	if lt == nil {
		return 0
	}
	return lt.Calls
}

// printMetrics prints one "name value unit" line per metric, by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printLayers prints a self-time table, largest self time first: per
// call, and per request of the requests the spans cover.
func printLayers(title string, layers map[string]*layerTime, requests int64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].Self > layers[names[j]].Self })
	fmt.Printf("%s (%d requests):\n", title, requests)
	fmt.Printf("  %-24s %10s %13s %13s %13s\n", "span", "calls", "self_us/call", "total_us/call", "self_us/req")
	for _, n := range names {
		lt := layers[n]
		calls := float64(lt.Calls)
		fmt.Printf("  %-24s %10d %13.3f %13.3f %13.3f\n", n, lt.Calls,
			ratio(float64(lt.Self)/1e3, calls), ratio(float64(lt.Total)/1e3, calls), ratio(float64(lt.Self)/1e3, float64(requests)))
	}
}

// printChecks prints the correctness verdict.
func printChecks(bad []string) {
	if len(bad) == 0 {
		fmt.Println("correctness: every check passed")
		return
	}
	for _, b := range bad {
		fmt.Println("correctness FAILED:", b)
	}
}

// writeJSON writes v to dir/name.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
