package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"saqp"
)

// runStats is one drive run: the latency of every completed submission,
// the run's wall time, and the number of submissions that failed.
type runStats struct {
	lat   []time.Duration
	wall  float64
	fails int64
}

// drive releases n arrivals to conc submitters, each calling
// submit(worker, arrival) and timing it. With qps > 0 a pacer releases
// arrivals on a fixed schedule however fast completions come back (an
// open loop); otherwise they are all released at once (closed loop).
func drive(n, conc int, qps float64, submit func(w, i int) error) runStats {
	arrivals := make(chan int, n) // sized to every send: the pacer never blocks
	if qps <= 0 {
		for i := 0; i < n; i++ {
			arrivals <- i
		}
		close(arrivals)
	} else {
		go func() {
			defer close(arrivals)
			tick := time.NewTicker(time.Duration(float64(time.Second) / qps))
			defer tick.Stop()
			for i := 0; i < n; i++ {
				arrivals <- i
				<-tick.C
			}
		}()
	}
	var (
		mu sync.Mutex
		ld runStats
		wg sync.WaitGroup
	)
	begin := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			var fails int64
			for i := range arrivals {
				t0 := time.Now()
				if err := submit(w, i); err != nil {
					fails++
					continue
				}
				lat = append(lat, time.Since(t0))
			}
			mu.Lock()
			ld.lat = append(ld.lat, lat...)
			ld.fails += fails
			mu.Unlock()
		}()
	}
	wg.Wait()
	ld.wall = time.Since(begin).Seconds()
	sort.Slice(ld.lat, func(i, j int) bool { return ld.lat[i] < ld.lat[j] })
	return ld
}

// done is the number of submissions that completed.
func (ld runStats) done() int64 { return int64(len(ld.lat)) }

// latencyMetrics records throughput and the latency percentiles in
// milliseconds (p = 1 is the maximum) into m.
func (ld runStats) latencyMetrics(m map[string]float64) {
	pct := func(p float64) float64 {
		if len(ld.lat) == 0 {
			return 0
		}
		i := int(math.Ceil(p*float64(len(ld.lat)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(ld.lat[i]) / float64(time.Millisecond)
	}
	m["wall_seconds"] = ld.wall
	m["achieved_qps"] = float64(ld.done()) / ld.wall
	m["latency_p50_ms"] = pct(0.50)
	m["latency_p95_ms"] = pct(0.95)
	m["latency_p99_ms"] = pct(0.99)
	m["latency_max_ms"] = pct(1.0)
}

// mix is the canonical TPC-H query set the serving experiments replay.
type mix struct {
	sql  []string
	seed uint64
}

// at is arrival i's query. Seeds cycle with the SQL, so a repeated
// query shares both text and ground-truth cost: cache hits are real
// hits.
func (m mix) at(i int) (string, uint64) {
	k := i % len(m.sql)
	return m.sql[k], m.seed + uint64(k)
}

// trainedMix builds a framework with a fresh observer, trains its
// default models, and loads the TPC-H mix seeded at seed.
func trainedMix(what string, seed uint64) (*saqp.Framework, mix, error) {
	fmt.Printf("Building framework and training models for the %s benchmark...\n", what)
	m := mix{seed: seed}
	fw, err := saqp.NewFramework(saqp.Options{Observer: saqp.NewObserver(nil)})
	if err != nil {
		return nil, m, err
	}
	if err := fw.TrainDefault(); err != nil {
		return nil, m, err
	}
	for _, n := range saqp.TPCHNames() {
		sql, err := saqp.TPCHSQL(n)
		if err != nil {
			return nil, m, err
		}
		m.sql = append(m.sql, sql)
	}
	return fw, m, nil
}

// submitWait adapts a serving front end's submit-then-wait to drive:
// arrival i submits m.at(i) and waits for its completion.
func submitWait[T interface {
	Wait(context.Context) (saqp.ServeResult, error)
}](m mix, submit func(context.Context, string, uint64) (T, error)) func(w, i int) error {
	return func(_, i int) error {
		ctx := context.Background()
		sql, seed := m.at(i)
		t, err := submit(ctx, sql, seed)
		if err != nil {
			return err
		}
		_, err = t.Wait(ctx)
		return err
	}
}
