package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"saqp"
)

// faultMinCompletion is the share of faulted-run queries recovery must
// complete.
const faultMinCompletion = 1

// faultBench replays the canonical TPC-H queries twice — clean, then
// under the default fault plan seeded with -fault-seed — prints the
// recovery summary, and gates the completion rate.
func faultBench(c config) error {
	cfg := saqp.DefaultExperimentConfig()
	cfg.Seed = c.seed
	spec := saqp.DefaultFaultSpec(c.faultSeed)
	fmt.Printf("Fault replay: %d round(s) of the TPC-H set, gap %.0fs, plan seed %d (%d nodes, horizon %.0fs)\n",
		c.faultRounds, c.gap, c.faultSeed, spec.Nodes, spec.HorizonSec)

	begin := time.Now()
	r, err := saqp.ReproduceFaultReplay(nil, cfg, saqp.NewFaultPlan(spec), c.sched, c.faultRounds, c.gap)
	if err != nil {
		return err
	}
	wall := time.Since(begin).Seconds()

	header("Fault Replay: TPC-H under deterministic fault injection")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "queries\t%d (%d completed, %d failed)\n", r.Queries, r.Completed, r.Failed)
	fmt.Fprintf(w, "completion rate\t%.1f%%\n", 100*r.CompletionRate)
	fmt.Fprintf(w, "p50 response\t%.1fs clean → %.1fs faulted (%.2fx)\n", r.CleanP50Sec, r.FaultP50Sec, r.P50Inflation)
	fmt.Fprintf(w, "p99 response\t%.1fs clean → %.1fs faulted (%.2fx)\n", r.CleanP99Sec, r.FaultP99Sec, r.P99Inflation)
	fmt.Fprintf(w, "makespan\t%.1fs clean → %.1fs faulted\n", r.CleanMakespanSec, r.FaultMakespanSec)
	fmt.Fprintf(w, "injected\t%d task failure(s), %d node crash(es)\n", r.Faults.TaskFailures, r.Faults.NodeCrashes)
	fmt.Fprintf(w, "recovered\t%d task retr(ies), %d node recover(ies), %d blacklist(s), %d speculative cancel(s)\n",
		r.Faults.TaskRetries, r.Faults.NodeRecoveries, r.Faults.NodesBlacklisted, r.Faults.SpeculativeCancels)
	w.Flush()

	if err := writeCSV(c.csvDir, "fault", [][]string{
		{"queries", "completed", "failed", "completion_rate",
			"clean_p50_sec", "fault_p50_sec", "clean_p99_sec", "fault_p99_sec",
			"task_failures", "task_retries", "node_crashes", "nodes_blacklisted"},
		{fmt.Sprint(r.Queries), fmt.Sprint(r.Completed), fmt.Sprint(r.Failed), f2(r.CompletionRate),
			f2(r.CleanP50Sec), f2(r.FaultP50Sec), f2(r.CleanP99Sec), f2(r.FaultP99Sec),
			fmt.Sprint(r.Faults.TaskFailures), fmt.Sprint(r.Faults.TaskRetries),
			fmt.Sprint(r.Faults.NodeCrashes), fmt.Sprint(r.Faults.NodesBlacklisted)},
	}); err != nil {
		return err
	}

	// Every metric but wall_seconds is deterministic in the two seeds.
	rep := newReport("fault", map[string]any{
		"scheduler": r.Scheduler, "seed": c.seed, "fault_seed": c.faultSeed, "rounds": c.faultRounds, "gap_sec": c.gap,
	}, map[string]float64{
		"queries": float64(r.Queries), "completed": float64(r.Completed), "failed": float64(r.Failed),
		"completion_rate": r.CompletionRate,
		"clean_p50_sec":   r.CleanP50Sec, "clean_p99_sec": r.CleanP99Sec,
		"fault_p50_sec": r.FaultP50Sec, "fault_p99_sec": r.FaultP99Sec,
		"p50_inflation": r.P50Inflation, "p99_inflation": r.P99Inflation,
		"clean_makespan_sec": r.CleanMakespanSec, "fault_makespan_sec": r.FaultMakespanSec,
		"task_failures": float64(r.Faults.TaskFailures), "task_retries": float64(r.Faults.TaskRetries),
		"node_crashes": float64(r.Faults.NodeCrashes), "node_recoveries": float64(r.Faults.NodeRecoveries),
		"nodes_blacklisted":   float64(r.Faults.NodesBlacklisted),
		"speculative_cancels": float64(r.Faults.SpeculativeCancels),
		"query_failures":      float64(r.Faults.QueryFailures),
		"wall_seconds":        wall,
	})
	rep.Gates = faultGates()
	return c.out.finish(rep)
}

// faultGates: recovery must complete at least faultMinCompletion of
// the faulted run's queries.
func faultGates() []gate { return []gate{{"completion_rate", ">=", faultMinCompletion}} }
