package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"saqp"
)

// learnGate bounds the final challenger's error at this multiple of
// the batch fit's error over the same samples.
const learnGate = 1.10

// learnBench replays a seeded corpus through a cold model-lifecycle
// registry, prints the convergence curve and promotion sequence, and
// gates the challenger against the batch fit.
func learnBench(c config) error {
	fmt.Printf("Learning replay: %d queries (seed %d), window %d, min-samples %d, margin %.2f\n",
		c.queries, c.seed, c.learnWindow, c.learnMinSamples, c.learnMargin)

	begin := time.Now()
	r, err := saqp.ReproduceLearningReplay(saqp.LearnReplayConfig{
		Queries:       c.queries,
		Seed:          c.seed,
		Window:        c.learnWindow,
		MinSamples:    c.learnMinSamples,
		PromoteMargin: c.learnMargin,
		PointEvery:    c.learnPointEvery,
	})
	if err != nil {
		return err
	}
	wall := time.Since(begin).Seconds()

	header("Learning Replay: online RLS convergence and champion promotion")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "queries\t%d (%d job samples, %d task samples)\n", r.Queries, r.JobSamples, r.TaskSamples)
	fmt.Fprintf(w, "promotions\t%d (final model version %d)\n", len(r.Promotions), r.FinalVersion)
	for _, p := range r.Promotions {
		champ := "cold start"
		if p.ChampionErr >= 0 {
			champ = fmt.Sprintf("champion %.2f%%", 100*p.ChampionErr)
		}
		fmt.Fprintf(w, "  v%d\tat %d job samples (%s → challenger %.2f%%)\n",
			p.Version, p.AtJobSamples, champ, 100*p.ChallengerErr)
	}
	fmt.Fprintf(w, "final challenger err\t%.2f%% over the full stream\n", 100*r.FinalChallengerErr)
	fmt.Fprintf(w, "batch baseline err\t%.2f%% (same samples, offline fit)\n", 100*r.BatchErr)
	w.Flush()

	fmt.Println("\njob samples  version  challenger err over full stream")
	rows := [][]string{{"job_samples", "version", "challenger_err"}}
	for _, p := range r.Points {
		fmt.Printf("%11d  %7d  %.4f\n", p.JobSamples, p.Version, p.ChallengerErr)
		rows = append(rows, []string{fmt.Sprint(p.JobSamples), fmt.Sprint(p.Version), f2(p.ChallengerErr)})
	}
	if err := writeCSV(c.csvDir, "learn", rows); err != nil {
		return err
	}

	// Every metric but wall_seconds is deterministic in the seed; the
	// detail carries the full curve and promotion sequence.
	rep := newReport("learn", map[string]any{
		"queries": c.queries, "seed": c.seed, "window": c.learnWindow, "min_samples": c.learnMinSamples,
		"margin": c.learnMargin, "point_every": c.learnPointEvery,
	}, map[string]float64{
		"queries": float64(r.Queries), "job_samples": float64(r.JobSamples), "task_samples": float64(r.TaskSamples),
		"promotions": float64(len(r.Promotions)), "final_version": float64(r.FinalVersion),
		"final_challenger_err": r.FinalChallengerErr, "batch_err": r.BatchErr,
		"wall_seconds": wall,
	})
	rep.Gates = learnGates(rep.Metrics)
	rep.Detail = r
	return c.out.finish(rep)
}

// learnGates: the fully fed challenger may trail the batch fit by at
// most learnGate×.
func learnGates(m map[string]float64) []gate {
	return []gate{{"final_challenger_err", "<=", m["batch_err"] * learnGate}}
}
