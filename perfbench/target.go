package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"saqp"
)

// tickEvery is how many completions pass between the cluster-wire
// client's Tick calls. With no fault plan a Tick only runs heartbeats
// and fans the leader's champion model out to the replicas.
const tickEvery = 256

// target is one workload's system under test, built through the public
// facade only.
type target struct {
	f   *saqp.Framework
	srv *saqp.Server        // tpch-repeat, adhoc-learn
	cs  *saqp.ClusterServer // cluster-wire
	cli *saqp.NetClusterClient

	cacheSize int  // plan-cache entries per engine
	learning  bool // completions feed an online learner

	completions atomic.Int64 // drives the Tick cadence
}

// setup builds the framework, trains its models and starts workload w's
// server, cluster and listeners: everything setup_s times.
func setup(w string) (*target, error) {
	f, err := saqp.NewFramework(saqp.Options{Observer: saqp.NewObserver(nil)})
	if err != nil {
		return nil, err
	}
	if err := f.TrainDefault(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	t := &target{f: f}
	switch w {
	case wTPCH, wAdhoc:
		t.cacheSize, t.learning = 256, w == wAdhoc
		t.srv, err = f.NewServer(saqp.ServerOptions{Workers: 2, CacheSize: t.cacheSize, OnlineLearning: t.learning})
		if err != nil {
			return nil, err
		}
	case wCluster:
		t.cacheSize, t.learning = 64, true
		t.cs, err = f.NewClusterServer(saqp.ClusterOptions{Shards: 2, Workers: 1, CacheSize: t.cacheSize, Listen: true})
		if err != nil {
			return nil, err
		}
		t.cli, err = saqp.DialNetCluster(saqp.NetClusterConfig{Seeds: []string{
			t.cs.NetAddr(0, saqp.ClusterPrimary), t.cs.NetAddr(1, saqp.ClusterPrimary),
		}})
		if err != nil {
			return nil, errors.Join(err, t.cs.Close())
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	return t, nil
}

// route says how a request reaches the engines.
type route int

const (
	viaServer      route = iota // in-process saqp.Server
	viaWire                     // NetClusterClient over loopback TCP
	viaCoordinator              // in-process ClusterServer.Submit
)

// defaultRoute is the path the workload's clients use.
func (t *target) defaultRoute() route {
	if t.cs != nil {
		return viaWire
	}
	return viaServer
}

// serve sends one request and waits for its completion, recording the
// submit and wait calls as children of a request span when rec is set.
func (t *target) serve(ctx context.Context, r request, via route, rec *recorder) (saqp.ServeResult, error) {
	root := rec.request("request")
	defer rec.end(root)
	var res saqp.ServeResult
	switch via {
	case viaServer:
		s := rec.begin("serve.submit", root)
		tk, err := t.srv.Submit(ctx, r.sql, r.seed)
		rec.end(s)
		if err != nil {
			return res, fmt.Errorf("submit: %w", err)
		}
		s = rec.begin("serve.wait", root)
		res, err = tk.Wait(ctx)
		rec.end(s)
		if err != nil {
			return res, fmt.Errorf("wait: %w", err)
		}
	case viaWire:
		s := rec.begin("net.submit_rtt", root)
		tk, err := t.cli.Submit(r.sql, r.seed)
		rec.end(s)
		if err != nil {
			return res, fmt.Errorf("submit: %w", err)
		}
		s = rec.begin("net.wait_rtt", root)
		res, err = t.cli.Wait(tk)
		rec.end(s)
		if err != nil {
			return res, fmt.Errorf("wait: %w", err)
		}
	case viaCoordinator:
		s := rec.begin("serve.submit", root)
		p, err := t.cs.Submit(ctx, r.sql, r.seed)
		rec.end(s)
		if err != nil {
			return res, fmt.Errorf("submit: %w", err)
		}
		s = rec.begin("serve.wait", root)
		res, err = p.Wait(ctx)
		rec.end(s)
		if err != nil {
			return res, fmt.Errorf("wait: %w", err)
		}
	}
	return res, nil
}

// completed advances the cluster's sentinel loop every tickEvery
// completions, as an operator's driver would.
func (t *target) completed() {
	if t.cs != nil && t.completions.Add(1)%tickEvery == 0 {
		t.cs.Tick()
	}
}

// stats sums the engines' counters.
func (t *target) stats() saqp.ServeStats {
	if t.cs != nil {
		return t.cs.Stats()
	}
	return t.srv.Stats()
}

// learner returns the registry completions feed, or nil.
func (t *target) learner() *saqp.Learner {
	if t.cs != nil {
		return t.cs.Learner()
	}
	return t.srv.Learner()
}

// close disconnects the client and drains every engine.
func (t *target) close() error {
	var err error
	if t.cli != nil {
		err = t.cli.Close()
	}
	if t.cs != nil {
		err = errors.Join(err, t.cs.Close())
	}
	if t.srv != nil {
		err = errors.Join(err, t.srv.Close())
	}
	return err
}
