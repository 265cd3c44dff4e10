package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"saqp"
)

// shardScaleGate is the sharded/single throughput scaling floor before
// derating by min(1, GOMAXPROCS/shards).
const shardScaleGate = 2.5

// measure drives a warm-query warmup pass plus two measured rounds of n
// closed-loop queries and returns the faster round's wall time —
// min-time measurement, so one slow round of scheduler or GC noise
// cannot sink the scaling ratio. A phase that fails any query timed
// different work, so it aborts the run.
func measure(phase string, warm, n, conc int, submit func(w, i int) error) (float64, error) {
	drive(warm, conc, 0, submit)
	var wall float64
	var fails, done int64
	for round := 0; round < 2; round++ {
		ld := drive(n, conc, 0, submit)
		fails += ld.fails
		if round == 0 || ld.wall < wall {
			wall, done = ld.wall, ld.done()
		}
	}
	if fails != 0 || done != int64(n) {
		return 0, fmt.Errorf("shard: %s phase incomplete: done=%d/%d errors=%d", phase, done, n, fails)
	}
	return wall, nil
}

// shardBench measures what the coordinator buys: phase 1 serves the
// TPC-H mix on one single-worker engine, phase 2 on a -shard-shards
// wide cluster of single-worker engines behind fingerprint routing, and
// phase 3 replays through a deterministic mid-run primary crash to
// prove exactly-once completion across a sentinel failover.
func shardBench(c config) error {
	fw, m, err := trainedMix("shard", c.seed)
	if err != nil {
		return err
	}

	// Phase 1: single engine, one worker — the per-shard building block.
	// Online learning is on to match the cluster phases, where every
	// instance feeds a model replica; without it the single engine would
	// skip the RLS feedback work the shards all pay.
	srv, err := fw.NewServer(saqp.ServerOptions{
		Workers: 1, CacheSize: c.cache, Scheduler: c.sched, OnlineLearning: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: %d queries, single engine (1 worker, %s)...\n", c.queries, c.sched)
	singleWall, err := measure("single-engine", 2*len(m.sql), c.queries, c.conc, submitWait(m, srv.Submit))
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Phase 2: the same load across the shards' single-worker engines
	// behind the fingerprint-routing coordinator.
	cs, err := fw.NewClusterServer(saqp.ClusterOptions{
		Shards: c.shards, Workers: 1, CacheSize: c.cache, Scheduler: c.sched,
	})
	if err != nil {
		return err
	}
	fmt.Printf("phase 2: %d queries across %d shards (1 worker each)...\n", c.queries, c.shards)
	shardWall, err := measure("sharded", 2*len(m.sql), c.queries, c.conc, submitWait(m, cs.Submit))
	if cerr := cs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Phase 3: exactly-once through a failover. A deterministic plan
	// crashes shard 0's primary early in the run while a fast wall-clock
	// ticker drives the sentinel; submissions routed to the dead primary
	// park on the promotion and must all complete.
	foQueries := max(c.queries/2, len(m.sql))
	plan := saqp.NewFaultPlan(saqp.FaultSpec{
		Seed: c.faultSeed, Nodes: 1, HorizonSec: 10, CrashProb: 1, CrashDowntimeSec: 6,
	})
	fcs, err := fw.NewClusterServer(saqp.ClusterOptions{
		Shards: c.shards, Workers: 1, CacheSize: c.cache, Scheduler: c.sched,
		FaultPlan: plan, MissThreshold: 2, SentinelSeed: c.faultSeed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("phase 3: %d queries through a mid-run shard-0 crash + sentinel failover...\n", foQueries)
	tickStop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-tick.C:
				fcs.Tick()
			}
		}
	}()
	fo := drive(foQueries, c.conc, 0, submitWait(m, fcs.Submit))
	// Keep ticking until the crash window has fully played out, so the
	// log always records the failover even on a fast machine.
	for fcs.Status().Epoch == 0 && fcs.Status().Tick < 60 {
		fcs.Tick()
	}
	close(tickStop)
	tickWG.Wait()
	failovers := 0
	for _, e := range fcs.Events() {
		if e.Kind == saqp.ClusterEventFailover {
			failovers++
		}
	}
	fst := fcs.Stats()
	eventLen := len(fcs.Events())
	if err := fcs.Close(); err != nil {
		return err
	}

	r := newReport("shard", map[string]any{
		"queries": c.queries, "concurrency": c.conc, "shards": c.shards, "cache_size": c.cache,
		"scheduler": c.sched, "seed": c.seed, "fault_seed": c.faultSeed, "scale_gate": shardScaleGate,
	}, map[string]float64{
		"single_wall_seconds": singleWall, "single_qps": float64(c.queries) / singleWall,
		"shard_wall_seconds": shardWall, "shard_qps": float64(c.queries) / shardWall,
		"failover_queries": float64(foQueries), "failovers": float64(failovers),
		"lost_completions": float64(int64(fst.Submitted) - fo.done()),
		// Every failover-phase arrival either completes or errors, so
		// zero client errors means all foQueries completed.
		"client_errors":    float64(fo.fails),
		"engine_submitted": float64(fst.Submitted), "engine_completed": float64(fst.Completed),
		"sentinel_events": float64(eventLen),
	})
	r.Metrics["scaling"] = r.Metrics["shard_qps"] / r.Metrics["single_qps"]
	derated := shardFloor(r.Env.GOMAXPROCS, c.shards)
	r.Gates = shardGates(derated, r.Metrics)

	fmt.Printf("single engine: %.1f q/s  |  %d shards: %.1f q/s  |  scaling %.2fx (gate %.2fx on %d core(s))\n",
		r.Metrics["single_qps"], c.shards, r.Metrics["shard_qps"], r.Metrics["scaling"], derated, r.Env.GOMAXPROCS)
	fmt.Printf("failover phase: %d queries, %d failover(s), lost=%g, engine submitted=%d completed=%d\n",
		foQueries, failovers, r.Metrics["lost_completions"], fst.Submitted, fst.Completed)
	return c.out.finish(r)
}

// shardFloor is the scaling gate derated by min(1, GOMAXPROCS/shards),
// so a machine with fewer cores than shards gates on routing overhead
// rather than parallelism it does not have.
func shardFloor(gomaxprocs, shards int) float64 {
	return shardScaleGate * math.Min(1, float64(gomaxprocs)/float64(shards))
}

// shardGates: exactly-once through the failover is unconditional, the
// crash plan must actually fail over, and scaling is gated against the
// core-derated floor.
func shardGates(derated float64, m map[string]float64) []gate {
	return []gate{
		{"lost_completions", "==", 0},
		{"client_errors", "==", 0},
		{"failovers", ">", 0},
		{"engine_completed", "==", m["engine_submitted"]},
		{"scaling", ">=", derated},
	}
}
