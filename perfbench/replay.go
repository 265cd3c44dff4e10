package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"fmt"
	"strconv"
	"time"

	"saqp"
	"saqp/internal/cluster"
	"saqp/internal/learn"
	"saqp/internal/net/proto"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
)

// Replay span names, one per layer call a served request makes.
const (
	spanReplay   = "replay.request"
	spanParse    = "query.parse"          // query.Parse + Query.String
	spanCompile  = "plan.compile"         // query.Resolve + plan.Compile, cache misses only
	spanEstimate = "selectivity.estimate" // Estimator.EstimateQuery, cache misses only
	spanScore    = "predict.score"        // TaskModel.WRD + PredictQuery
	spanSimulate = "cluster.simulate"     // cluster.BuildQuery + cluster.New + Sim.RunContext
	spanFeedback = "learn.feedback"       // learn.Registry.ObserveJob/ObserveTask
	spanHooks    = "obs.hooks"            // the observer hooks one served request fires
	spanRoute    = "shardserve.route"     // ClusterServer.Route
	spanFrame    = "proto.frame"          // proto.AppendValue + proto.ReadValue of the request's frames
)

// replayer re-runs a workload's request stream on one goroutine through
// the same layer calls the serving stack makes, with a span around each,
// so self time can be attributed per layer without instrumenting the
// program. It keeps its own plan cache and learner so that cache misses
// and learner feedback happen on the requests where the server has them.
type replayer struct {
	t     *target
	rec   *recorder
	cache *lru
	L     *learn.Registry // nil when the workload does not learn
	pol   cluster.Scheduler
	cc    cluster.Config
	slots predict.Slots
	ov    predict.Overheads

	requests, jobs, tasks, observations int64
	shards                              map[int]int64

	frames []byte
	br     *bufio.Reader
	rd     *bytes.Reader
}

// newReplayer builds a replayer over t's framework.
func newReplayer(t *target, rec *recorder) (*replayer, error) {
	pol, err := sched.ByName(saqp.SchedulerSWRD)
	if err != nil {
		return nil, err
	}
	cc := cluster.DefaultConfig()
	rp := &replayer{
		t: t, rec: rec, cache: newLRU(t.cacheSize), pol: pol, cc: cc,
		slots:  predict.Slots{Map: cc.Nodes * cc.MapSlotsPerNode, Reduce: cc.Nodes * cc.ReduceSlotsPerNode},
		ov:     predict.Overheads{SchedPerTaskSec: cc.SchedulingOverheadSec, JobInitSec: cc.JobInitSec},
		shards: make(map[int]int64),
		rd:     bytes.NewReader(nil),
	}
	rp.br = bufio.NewReader(rp.rd)
	if t.learning {
		rp.L = t.f.NewLearner(saqp.LearnerConfig{})
	}
	return rp, nil
}

// scored is a replay cache entry: the estimate and its static scores.
type scored struct {
	est          *selectivity.QueryEstimate
	wrd, predSec float64
}

// replay runs requests from the start of st until d has passed or max
// requests have run.
func (rp *replayer) replay(ctx context.Context, st *stream, d time.Duration, max int) error {
	deadline := time.Now().Add(d)
	for i := 0; i < max && time.Now().Before(deadline); i++ {
		if err := rp.one(ctx, int64(i), st.at(int64(i))); err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	return nil
}

// one replays request r.
func (rp *replayer) one(ctx context.Context, i int64, r request) error {
	rec, f := rp.rec, rp.t.f
	rp.requests++
	root := rec.request(spanReplay)
	defer rec.end(root)

	s := rec.begin(spanParse, root)
	q, err := query.Parse(r.sql)
	if err != nil {
		return err
	}
	norm := q.String()
	rec.end(s)

	if rp.t.cs != nil {
		s = rec.begin(spanRoute, root)
		ri, err := rp.t.cs.Route(r.sql)
		rec.end(s)
		if err != nil {
			return err
		}
		rp.shards[ri.Shard]++
	}

	ent, hit := rp.cache.get(norm)
	if !hit {
		s = rec.begin(spanCompile, root)
		if err := query.Resolve(q, f.Schemas); err != nil {
			return err
		}
		dag, err := plan.Compile(q)
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin(spanEstimate, root)
		est, err := f.Estimator.EstimateQuery(dag)
		rec.end(s)
		if err != nil {
			return err
		}
		rp.jobs += int64(len(est.Jobs))
		ent = &scored{est: est}
		if !rp.t.learning {
			s = rec.begin(spanScore, root)
			ent.wrd, ent.predSec = f.TaskTime.WRD(est), f.TaskTime.PredictQuery(est, rp.slots, rp.ov)
			rec.end(s)
		}
		rp.cache.put(norm, ent)
	}
	est, wrd, predSec := ent.est, ent.wrd, ent.predSec
	tm, jm := f.TaskTime, f.JobTime
	if rp.L != nil {
		s = rec.begin(spanScore, root)
		if champ := rp.L.TaskModel(); champ != nil {
			tm = champ
			wrd, predSec = tm.WRD(est), tm.PredictQuery(est, rp.slots, rp.ov)
		}
		rec.end(s)
		if champ := rp.L.JobModel(); champ != nil {
			jm = champ
		}
	}

	s = rec.begin(spanSimulate, root)
	id := "r" + strconv.FormatInt(i, 10)
	cq := cluster.BuildQuery(id, est, trace.NewDefaultCostModel(r.seed), tm)
	sim := cluster.New(rp.cc, rp.pol)
	sim.Submit(cq, 0)
	_, err = sim.RunContext(ctx)
	rec.end(s)
	if err != nil {
		return err
	}
	if cq.Failed() {
		return cq.Err
	}
	res := saqp.ServeResult{ID: id, WRD: wrd, PredictedSec: predSec, SimSec: cq.ResponseTime(), Jobs: len(cq.Jobs), Attempts: 1}
	for _, j := range cq.Jobs {
		res.Maps += len(j.Maps)
		res.Reduces += len(j.Reds)
	}
	rp.tasks += int64(res.Maps + res.Reduces)

	if rp.L != nil && !cq.Faulted {
		s = rec.begin(spanFeedback, root)
		rp.observations += feedback(rp.L, est, cq)
		rec.end(s)
	}

	s = rec.begin(spanHooks, root)
	o := f.Obs
	o.ServeSubmitted()
	o.ServeCacheLookup(hit)
	o.ServeAdmitted(wrd, 1)
	o.ServeDequeued(0, 1)
	for ji, je := range est.Jobs {
		if sj := cq.Jobs[ji]; sj.DoneTime > sj.SubmitTime {
			o.Drift.RecordJob(je.Job.Type.String(), jm.PredictJob(je), sj.DoneTime-sj.SubmitTime, cq.Faulted)
		}
	}
	o.ServeCompleted(res.SimSec, 0, "")
	rec.end(s)

	if rp.t.cs != nil {
		return rp.frame(root, r, res)
	}
	return nil
}

// frame encodes and decodes the four frames one wire request exchanges:
// SUBMIT, its ticket reply, WAIT, and the result reply.
func (rp *replayer) frame(root int32, r request, res saqp.ServeResult) error {
	fl := func(v float64) proto.Value { return proto.BulkString(strconv.FormatFloat(v, 'f', 3, 64)) }
	vals := [4]proto.Value{
		proto.Array(proto.BulkString("SUBMIT"), proto.BulkString(r.sql), proto.BulkString(strconv.FormatUint(r.seed, 10))),
		proto.Simple(res.ID),
		proto.Array(proto.BulkString("WAIT"), proto.BulkString(res.ID)),
		proto.Array(
			proto.BulkString("id"), proto.BulkString(res.ID),
			proto.BulkString("cache_hit"), proto.Int(0),
			proto.BulkString("wrd"), fl(res.WRD),
			proto.BulkString("predicted_sec"), fl(res.PredictedSec),
			proto.BulkString("sim_sec"), fl(res.SimSec),
			proto.BulkString("jobs"), proto.Int(int64(res.Jobs)),
			proto.BulkString("maps"), proto.Int(int64(res.Maps)),
			proto.BulkString("reduces"), proto.Int(int64(res.Reduces)),
			proto.BulkString("attempts"), proto.Int(int64(res.Attempts)),
			proto.BulkString("faulted"), proto.Int(0),
			proto.BulkString("model_version"), proto.Int(int64(res.ModelVersion)),
		),
	}
	s := rp.rec.begin(spanFrame, root)
	defer rp.rec.end(s)
	rp.frames = rp.frames[:0]
	for _, v := range vals {
		rp.frames = proto.AppendValue(rp.frames, v)
	}
	rp.rd.Reset(rp.frames)
	rp.br.Reset(rp.rd)
	for _, want := range vals {
		got, err := proto.ReadValue(rp.br, proto.DefaultLimits())
		if err != nil {
			return err
		}
		if !got.Equal(want) {
			return fmt.Errorf("frame round trip changed %v", want.Kind)
		}
	}
	return nil
}

// learnTasksPerGroup mirrors the serving engine's cap on task
// observations fed back per task group.
const learnTasksPerGroup = 8

// feedback feeds one completed query's observed job and task times to
// L the way the serving engine does on every clean completion, walking
// task groups in cluster.BuildQuery's order, and returns the number of
// observations made.
func feedback(L *learn.Registry, est *selectivity.QueryEstimate, cq *cluster.Query) int64 {
	var n int64
	observe := func(op plan.JobType, reduce bool, groups []selectivity.TaskGroup, pf float64, tasks []*cluster.Task) {
		idx := 0
		for _, g := range groups {
			for i := 0; i < g.Count && i < learnTasksPerGroup; i++ {
				if tk := tasks[idx+i]; tk.EndTime > tk.StartTime {
					L.ObserveTask(op, reduce, predict.TaskFeatures(op, g.InBytes, g.OutBytes, pf), tk.EndTime-tk.StartTime)
					n++
				}
			}
			idx += g.Count
		}
	}
	for ji, je := range est.Jobs {
		sj := cq.Jobs[ji]
		if sec := sj.DoneTime - sj.SubmitTime; sec > 0 {
			L.ObserveJob(je.Job.Type, predict.JobFeatures(je), sec)
			n++
		}
		pf := je.PFactor()
		groups := je.MapGroups
		if len(groups) == 0 {
			nm := max(je.NumMaps, 1)
			groups = []selectivity.TaskGroup{{Count: nm, InBytes: je.InBytes / float64(nm), OutBytes: je.MedBytes / float64(nm)}}
		}
		observe(je.Job.Type, false, groups, pf, sj.Maps)
		rgroups := je.ReduceGroups
		if len(rgroups) == 0 && je.NumReduces > 0 {
			nr := je.NumReduces
			rgroups = []selectivity.TaskGroup{{Count: nr, InBytes: je.MedBytes / float64(nr), OutBytes: je.OutBytes / float64(nr)}}
		}
		observe(je.Job.Type, true, rgroups, pf, sj.Reds)
	}
	return n
}

// lru is a bounded least-recently-used map from normalized SQL to its
// replay cache entry, sized like the engine's plan cache.
type lru struct {
	cap   int
	order *list.List // front is most recent; values are *lruItem
	items map[string]*list.Element
}

// lruItem is one cached entry.
type lruItem struct {
	key string
	val *scored
}

// newLRU returns an empty cache holding at most n entries.
func newLRU(n int) *lru {
	return &lru{cap: n, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry for key and marks it most recent.
func (c *lru) get(key string) (*scored, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// put inserts key, evicting the least recent entry when full.
func (c *lru) put(key string, v *scored) {
	if c.order.Len() >= c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*lruItem).key)
	}
	c.items[key] = c.order.PushFront(&lruItem{key: key, val: v})
}
