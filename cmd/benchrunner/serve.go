package main

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"saqp"
)

// serveBench replays the TPC-H query mix through one saqp.Server as an
// open-loop arrival process (closed-loop when -qps is 0). Wall clock is
// measured only here — the engine itself is clock-free.
func serveBench(c config) error {
	// Register the signal handler before any work so a SIGTERM arriving
	// mid-benchmark is buffered and ends the linger window immediately.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	fw, m, err := trainedMix("serve", c.seed)
	if err != nil {
		return err
	}
	srv, err := fw.NewServer(saqp.ServerOptions{
		Workers:      c.workers,
		CacheSize:    c.cache,
		Scheduler:    c.sched,
		QueryTimeout: c.timeout,
		TraceSpans:   c.spans != "",
		SLO:          &saqp.SLOConfig{},
		AdminAddr:    c.admin,
	})
	if err != nil {
		return err
	}
	if c.admin != "" {
		fmt.Printf("admin endpoint: %s (/metrics /spans /slo /statz /debug/pprof)\n", srv.AdminURL())
	}

	fmt.Printf("Serving %d queries (%d submitters, %d pool workers, %s, qps=%g)...\n",
		c.queries, c.conc, c.workers, c.sched, c.qps)
	// Errors and cancellations are counted by the engine.
	ld := drive(c.queries, c.conc, c.qps, submitWait(m, srv.Submit))

	st := srv.Stats()
	slo := 0.0
	if st.SLOFiring {
		slo = 1
	}
	r := newReport("serve", map[string]any{
		"queries": c.queries, "concurrency": c.conc, "target_qps": c.qps, "pool_workers": c.workers,
		"cache_size": c.cache, "scheduler": c.sched, "seed": c.seed,
	}, map[string]float64{
		"submitted": float64(st.Submitted), "completed": float64(st.Completed),
		"canceled": float64(st.Canceled), "rejected": float64(st.Rejected), "errors": float64(st.Errors),
		// Every admitted submission must be observed by exactly one
		// successful Wait.
		"lost_completions": float64(int64(st.Submitted) - ld.done()),
		"cache_hit_rate":   st.HitRate(),
		"spans_started":    float64(st.SpansStarted), "spans_finished": float64(st.SpansFinished),
		"slo_fast_burn": st.SLOFastBurn, "slo_slow_burn": st.SLOSlowBurn,
		"slo_firing": slo, "slo_alerts": float64(st.SLOAlerts),
	})
	ld.latencyMetrics(r.Metrics)
	r.Gates = serveGates(c.queries, r.Metrics)
	snap := fw.Obs.Metrics.Snapshot()
	r.Registry = &snap

	fmt.Printf("served %d/%d queries in %.2fs (%.1f q/s)\n", st.Completed, c.queries, ld.wall, r.Metrics["achieved_qps"])
	fmt.Printf("latency p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n", r.Metrics["latency_p50_ms"],
		r.Metrics["latency_p95_ms"], r.Metrics["latency_p99_ms"], r.Metrics["latency_max_ms"])
	fmt.Printf("cache hit-rate %.1f%% (%d hits / %d misses, %d evictions)\n",
		100*st.HitRate(), st.CacheHits, st.CacheMisses, st.CacheEvictions)
	if st.SpansStarted > 0 {
		fmt.Printf("spans %d started / %d finished\n", st.SpansStarted, st.SpansFinished)
	}
	fmt.Printf("SLO burn fast=%.2f slow=%.2f firing=%v alerts=%d\n",
		st.SLOFastBurn, st.SLOSlowBurn, st.SLOFiring, st.SLOAlerts)

	if c.spans != "" {
		if err := writeSpans(srv, c.spans); err != nil {
			return err
		}
	}
	gateErr := c.out.finish(r)

	// Hold the server (and with it the admin endpoint) open so a live
	// process can be inspected after the load finishes; a buffered
	// SIGINT/SIGTERM — even one delivered mid-benchmark — ends the window
	// immediately, and the server still shuts down gracefully.
	if c.linger > 0 {
		fmt.Printf("lingering %s before shutdown (SIGINT/SIGTERM to end early)...\n", c.linger)
		select {
		case <-time.After(c.linger):
		case s := <-sig:
			fmt.Printf("caught %v: shutting down\n", s)
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return gateErr
}

// serveGates: no completion may be lost, nothing in this benchmark
// cancels or errors, and with enough queries to repeat the mix the
// cache must actually hit.
func serveGates(queries int, m map[string]float64) []gate {
	g := []gate{
		{"lost_completions", "==", 0},
		{"completed", "==", m["submitted"]},
		{"errors", "==", 0},
		{"canceled", "==", 0},
	}
	if queries >= 50 {
		g = append(g, gate{"cache_hit_rate", ">", 0.5})
	}
	return g
}

// writeSpans dumps the server's retained span trees as JSON to path,
// creating the parent directory if needed.
func writeSpans(srv *saqp.Server, path string) error {
	sp := srv.Spans()
	if sp == nil {
		return fmt.Errorf("serve: -spans set but tracing is off")
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c := sp.Counts()
	fmt.Printf("wrote %d span trees to %s (%d started, %d evicted)\n",
		c.Retained, path, c.Started, c.Evicted)
	return nil
}
