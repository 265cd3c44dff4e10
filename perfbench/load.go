package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"saqp"
)

// clients is the closed-loop client count: each sends its next request
// only after the previous one's completion arrives.
const clients = 2

// expected is one (sql, seed) pair's result as the facade computes it
// without the serving stack.
type expected struct {
	simSec, predSec     float64
	jobs, maps, reduces int
}

// checker verifies every served result. On tpch-repeat each result must
// equal the facade's replay of the same (sql, seed) bit for bit; on the
// other workloads each must carry a positive simulated time and the
// compiled plan's job count.
type checker struct {
	exact [][]expected // [query][seed]; nil unless results are replayed exactly
	jobs  []int

	bad   atomic.Int64
	mu    sync.Mutex
	first string
}

// newChecker precomputes the expectations for workload w's stream.
func newChecker(w string, f *saqp.Framework, st *stream) (*checker, error) {
	c := &checker{jobs: st.jobs}
	if w != wTPCH {
		return c, nil
	}
	c.exact = make([][]expected, len(st.queries))
	for qi, sql := range st.queries {
		d, err := f.Compile(sql)
		if err != nil {
			return nil, err
		}
		qe, err := f.Estimate(d)
		if err != nil {
			return nil, err
		}
		pred, err := f.PredictQuerySeconds(qe)
		if err != nil {
			return nil, err
		}
		base := expected{predSec: pred, jobs: len(qe.Jobs)}
		for _, je := range qe.Jobs {
			base.maps += je.NumMaps
			base.reduces += je.NumReduces
		}
		c.exact[qi] = make([]expected, len(st.seeds))
		for si, seed := range st.seeds {
			e := base
			if e.simSec, err = f.SimulateQuery(fmt.Sprintf("check-%d-%d", qi, si), qe, saqp.SchedulerSWRD, seed); err != nil {
				return nil, err
			}
			c.exact[qi][si] = e
		}
	}
	return c, nil
}

// check verifies one result and counts a mismatch.
func (c *checker) check(r request, res saqp.ServeResult) {
	var why string
	switch {
	case c.exact != nil:
		e := c.exact[r.qi][r.si]
		got := expected{simSec: res.SimSec, predSec: res.PredictedSec, jobs: res.Jobs, maps: res.Maps, reduces: res.Reduces}
		if math.Float64bits(got.simSec) != math.Float64bits(e.simSec) ||
			math.Float64bits(got.predSec) != math.Float64bits(e.predSec) ||
			got.jobs != e.jobs || got.maps != e.maps || got.reduces != e.reduces {
			why = fmt.Sprintf("served %+v, facade replay gives %+v", got, e)
		}
	case !(res.SimSec > 0):
		why = fmt.Sprintf("SimSec = %v, want > 0", res.SimSec)
	case res.Jobs != c.jobs[r.qi]:
		why = fmt.Sprintf("Jobs = %d, compiled plan has %d", res.Jobs, c.jobs[r.qi])
	}
	if why == "" {
		return
	}
	if c.bad.Add(1) == 1 {
		c.mu.Lock()
		c.first = fmt.Sprintf("query %d seed %d: %s", r.qi, r.seed, why)
		c.mu.Unlock()
	}
}

// firstMismatch describes the first failed check, or "".
func (c *checker) firstMismatch() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

// bench drives one target with one stream; the stream position carries
// over from phase to phase.
type bench struct {
	t      *target
	st     *stream
	chk    *checker
	next   atomic.Int64 // next stream index
	totals tally        // summed over every phase, warm-up included
}

// tally counts requests and their outcomes.
type tally struct {
	attempted int64 // requests sent
	completed int64 // completions received
	errs      int64 // failed submits and waits
	firstErr  error
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.errs += o.errs
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// latencies holds one client's or one phase's latency and prediction
// error samples.
type latencies struct {
	lat     hist // client submit to completion seen, ns
	latSum  time.Duration
	predErr hist // |PredictedSec - SimSec| / SimSec, in units of 1e-9
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	tally
	latencies
	elapsed time.Duration
	cpu     time.Duration // process user+sys CPU time
	recs    []*recorder

	mallocs, bytes uint64
	gcCPU, allCPU  float64 // runtime/metrics CPU-seconds estimates
	before, after  saqp.ServeStats
}

// qps is the phase's completion rate.
func (p *phaseResult) qps() float64 { return ratio(float64(p.completed), p.elapsed.Seconds()) }

// cpuUS is the phase's process CPU time per completion, in µs.
func (p *phaseResult) cpuUS() float64 { return ratio(float64(p.cpu)/1e3, float64(p.completed)) }

// client is one closed-loop client's record.
type client struct {
	tally
	latencies
	rec *recorder
}

// run drives n closed-loop clients for d over route via, recording
// spans when traced is set.
func (b *bench) run(ctx context.Context, n int, d time.Duration, via route, traced bool) phaseResult {
	var p phaseResult
	p.before = b.t.stats()
	cs := make([]*client, n)
	start := time.Now()
	for i := range cs {
		cs[i] = &client{}
		if traced {
			cs[i].rec = newRecorder(start, int64(i)<<40)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, all0 := gcCPU()
	cpu0 := cpuTime()
	start = time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			b.loop(ctx, c, deadline, via)
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	gc1, all1 := gcCPU()
	p.mallocs, p.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	p.gcCPU, p.allCPU = gc1-gc0, all1-all0
	p.after = b.t.stats()
	for _, c := range cs {
		p.tally.add(c.tally)
		p.lat.merge(&c.lat)
		p.latSum += c.latSum
		p.predErr.merge(&c.predErr)
		if c.rec != nil {
			p.recs = append(p.recs, c.rec)
		}
	}
	b.totals.add(p.tally)
	return p
}

// loop is one client: send, wait, check, repeat until the deadline.
func (b *bench) loop(ctx context.Context, c *client, deadline time.Time, via route) {
	for time.Now().Before(deadline) {
		r := b.st.at(b.next.Add(1) - 1)
		c.attempted++
		t0 := time.Now()
		res, err := b.t.serve(ctx, r, via, c.rec)
		lat := time.Since(t0)
		if err != nil {
			c.errs++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		c.completed++
		c.lat.add(uint64(lat))
		c.latSum += lat
		c.predErr.add(uint64(1e9 * math.Abs(res.PredictedSec-res.SimSec) / res.SimSec))
		b.chk.check(r, res)
		b.t.completed()
	}
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS (VmHWM) count, so that mem_peak_mb covers serving only, not
// the garbage of earlier set-ups.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size since resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// gcCPU returns the runtime's estimates of CPU-seconds spent in GC and
// in total so far.
func gcCPU() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
