package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"saqp"
)

// netDrainTimeout bounds the frontend's graceful drain at benchmark
// end.
const netDrainTimeout = 30 * time.Second

// netP99Gate is how far p99 may exceed the baseline's p99. Wall-clock
// numbers vary across machines, so the gate is deliberately loose — it
// catches order-of-magnitude protocol regressions, not noise.
const netP99Gate = 1.5

// netBench drives the TCP frontend over real sockets: a trained
// framework serves behind a NetServer on loopback while one client
// connection per submitter replays the TPC-H mix, each SUBMITting and
// WAITing over the wire. Latency therefore includes encode, socket,
// parse and serving time — the number the in-process serve benchmark
// cannot see.
func netBench(c config) error {
	fw, m, err := trainedMix("net", c.seed)
	if err != nil {
		return err
	}
	srv, err := fw.NewServer(saqp.ServerOptions{Workers: c.workers, CacheSize: c.cache, Scheduler: c.sched})
	if err != nil {
		return err
	}
	ns, err := fw.NewNetServer(srv, saqp.NetOptions{Addr: "127.0.0.1:0", MaxConns: c.conc + 8})
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Printf("Serving %d queries over TCP %s (%d client conns, %d pool workers, %s, qps=%g)...\n",
		c.queries, ns.Addr(), c.conc, c.workers, c.sched, c.qps)
	// One connection per submitter, dialed before the clock starts.
	conns := make([]*saqp.NetClient, c.conc)
	var dialErr error
	for w := range conns {
		if conns[w], dialErr = saqp.DialNet(ns.Addr()); dialErr != nil {
			break
		}
	}
	var (
		ld   runStats
		busy atomic.Int64
	)
	if dialErr == nil {
		ld = drive(c.queries, c.conc, c.qps, func(w, i int) error {
			sql, seed := m.at(i)
			id, err := conns[w].Submit(sql, seed)
			if err != nil {
				if saqp.IsNetBusy(err) {
					busy.Add(1)
				}
				return err
			}
			_, err = conns[w].Wait(id)
			return err
		})
	}
	for _, cl := range conns {
		if cl != nil {
			cl.Close()
		}
	}

	st := srv.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), netDrainTimeout)
	defer cancel()
	if err := ns.Shutdown(ctx); err != nil {
		return fmt.Errorf("net: frontend drain incomplete: %w", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if dialErr != nil {
		return fmt.Errorf("net: dialing %s: %w", ns.Addr(), dialErr)
	}

	r := newReport("net", map[string]any{
		"queries": c.queries, "client_conns": c.conc, "target_qps": c.qps, "pool_workers": c.workers,
		"cache_size": c.cache, "scheduler": c.sched, "seed": c.seed,
	}, map[string]float64{
		"submitted": float64(st.Submitted), "completed": float64(st.Completed),
		"rejected": float64(st.Rejected), "errors": float64(st.Errors),
		"client_completed": float64(ld.done()), "client_busy": float64(busy.Load()),
		"client_errors": float64(ld.fails - busy.Load()),
		// Exactly-once accounting across the wire: every admitted
		// submission must be observed by exactly one successful WAIT.
		"lost_completions": float64(int64(st.Submitted) - ld.done()),
		"cache_hit_rate":   st.HitRate(),
	})
	ld.latencyMetrics(r.Metrics)
	r.Gates = netGates(c.queries, r.Metrics, c.out.base)
	snap := fw.Obs.Metrics.Snapshot()
	r.Registry = &snap

	fmt.Printf("served %d/%d queries over the wire in %.2fs (%.1f q/s)\n",
		st.Completed, c.queries, ld.wall, r.Metrics["achieved_qps"])
	fmt.Printf("latency p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms (incl. socket+parse)\n", r.Metrics["latency_p50_ms"],
		r.Metrics["latency_p95_ms"], r.Metrics["latency_p99_ms"], r.Metrics["latency_max_ms"])
	fmt.Printf("cache hit-rate %.1f%% — busy=%d client-errors=%g\n",
		100*st.HitRate(), busy.Load(), r.Metrics["client_errors"])
	return c.out.finish(r)
}

// netGates: at the default load nothing may be lost, refused or
// errored — every submission completes and is seen — and with a
// baseline, p99 may not exceed the baseline's by more than netP99Gate.
func netGates(queries int, m map[string]float64, base *report) []gate {
	g := []gate{
		{"lost_completions", "==", 0},
		{"client_completed", "==", float64(queries)},
		{"client_busy", "==", 0},
		{"client_errors", "==", 0},
		{"completed", "==", m["submitted"]},
		{"errors", "==", 0},
		{"rejected", "==", 0},
	}
	if base != nil && base.Metrics["latency_p99_ms"] > 0 {
		g = append(g, gate{"latency_p99_ms", "<=", base.Metrics["latency_p99_ms"] * netP99Gate})
	}
	return g
}
