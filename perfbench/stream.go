package main

import (
	"fmt"

	"saqp"
	"saqp/internal/plan"
	"saqp/internal/workload"
)

// Workload names, as --workload takes them.
const (
	wTPCH    = "tpch-repeat"
	wAdhoc   = "adhoc-learn"
	wCluster = "cluster-wire"
)

// workloads lists every workload in the order BENCHMARK.json names them.
var workloads = []string{wTPCH, wAdhoc, wCluster}

const (
	// tpchSeeds is the size of the seed set the TPC-H mixes cycle over:
	// 7 queries x 256 seeds gives 1792 distinct (sql, seed) pairs, few
	// enough to precompute every expected result. With 64 seeds,
	// cluster-wire's median prediction error spread 0.08 over ten
	// workload seeds, most of it from which seeds each drew.
	tpchSeeds = 256
	// adhocPool is how many distinct generated queries adhoc-learn
	// cycles through. A query recurs only after 32767 others, far beyond
	// the plan cache's 256 entries, so every recurrence still misses.
	adhocPool = 1 << 15
)

// request is one element of a workload's request stream: the SQL text
// and seed the program receives, plus the indices the correctness check
// looks its expectations up by.
type request struct {
	sql  string
	seed uint64
	qi   int // index into stream.queries
	si   int // index into stream.seeds; -1 when the seed is per-request
}

// stream is a workload's deterministic request sequence. Request i
// takes query i mod len(queries). With a seed set, it takes seed
// seeds[(i / len(queries)) mod len(seeds)], so every query meets every
// seed; without one, each request has its own seed.
type stream struct {
	queries []string
	jobs    []int // compiled plan job count per query
	seeds   []uint64
	base    uint64
}

// newStream builds workload w's request stream from seed.
func newStream(w string, seed uint64) (*stream, error) {
	switch w {
	case wTPCH, wCluster:
		// Hashing the seed first keeps the seed sets of nearby seeds
		// apart; counting on from the seed itself would give seeds s and
		// s+1 all but one of their seeds in common.
		s := &stream{seeds: make([]uint64, tpchSeeds)}
		base := splitmix(seed ^ 0x7063682d72657074)
		for i := range s.seeds {
			s.seeds[i] = splitmix(base + uint64(i))
		}
		for _, name := range saqp.TPCHNames() {
			sql, err := saqp.TPCHSQL(name)
			if err != nil {
				return nil, err
			}
			q, err := saqp.TPCHQuery(name)
			if err != nil {
				return nil, err
			}
			if err := s.add(sql, q); err != nil {
				return nil, err
			}
		}
		return s, nil
	case wAdhoc:
		s := &stream{base: splitmix(seed ^ 0x6164686f632d6c65)}
		g := workload.NewGenerator(seed)
		seen := make(map[string]bool, adhocPool)
		for len(s.queries) < adhocPool {
			q, _, err := g.RandomQuery()
			if err != nil {
				return nil, err
			}
			// About one draw in eight repeats an earlier query; skipping
			// those keeps every request in a pool-length window distinct.
			sql := q.String()
			if seen[sql] {
				continue
			}
			seen[sql] = true
			if err := s.add(sql, q); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloads)
}

// add appends one query with its compiled plan's job count.
func (s *stream) add(sql string, q *saqp.Query) error {
	d, err := plan.Compile(q)
	if err != nil {
		return fmt.Errorf("compile %q: %w", sql, err)
	}
	s.queries = append(s.queries, sql)
	s.jobs = append(s.jobs, len(d.Jobs))
	return nil
}

// at returns request i.
func (s *stream) at(i int64) request {
	n := int64(len(s.queries))
	r := request{qi: int(i % n), si: -1}
	r.sql = s.queries[r.qi]
	if len(s.seeds) > 0 {
		r.si = int((i / n) % int64(len(s.seeds)))
		r.seed = s.seeds[r.si]
	} else {
		r.seed = splitmix(s.base + uint64(i))
	}
	return r
}

// splitmix is the SplitMix64 finalizer: it spreads consecutive inputs
// over the whole 64-bit range.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
