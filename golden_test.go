package saqp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"saqp/internal/core/floats"
)

// goldenQuery is one TPC-H query's checked-in prediction snapshot.
type goldenQuery struct {
	Name         string  `json:"name"`
	Jobs         int     `json:"jobs"`
	WRD          float64 `json:"wrd_seconds"`
	PredictedSec float64 `json:"predicted_seconds"`
}

const goldenPath = "testdata/golden_tpch.json"

// goldenEps absorbs float noise that is not a model change — e.g. FMA
// contraction differences across architectures — while still catching
// any real drift in the estimate or the fitted coefficients.
const goldenEps = 1e-6

// TestGoldenTPCHPredictions is the end-to-end regression gate: compile →
// estimate → train → predict over the full TPC-H corpus, compared
// against a checked-in snapshot of each query's WRD (Eq. 10) and
// predicted standalone response time. Training is fully deterministic
// (seeded corpus, least-squares fit), so any diff is a behavior change —
// regenerate deliberately with:
//
//	SAQP_UPDATE_GOLDEN=1 go test -run TestGoldenTPCHPredictions .
func TestGoldenTPCHPredictions(t *testing.T) {
	fw, err := NewFramework(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.TrainDefault(); err != nil {
		t.Fatal(err)
	}

	names := TPCHNames()
	got := make([]goldenQuery, 0, len(names))
	for _, name := range names {
		sql, err := TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := fw.Compile(sql)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		qe, err := fw.Estimate(d)
		if err != nil {
			t.Fatalf("%s: estimate: %v", name, err)
		}
		wrd, err := fw.WRD(qe)
		if err != nil {
			t.Fatalf("%s: wrd: %v", name, err)
		}
		pred, err := fw.PredictQuerySeconds(qe)
		if err != nil {
			t.Fatalf("%s: predict: %v", name, err)
		}
		got = append(got, goldenQuery{Name: name, Jobs: len(qe.Jobs), WRD: wrd, PredictedSec: pred})
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Name < got[j].Name })

	if os.Getenv("SAQP_UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d queries)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden snapshot (regenerate with SAQP_UPDATE_GOLDEN=1): %v", err)
	}
	var want []goldenQuery
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden snapshot corrupt: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden snapshot has %d queries, corpus has %d — regenerate with SAQP_UPDATE_GOLDEN=1",
			len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Errorf("query %d: name %q, golden %q", i, g.Name, w.Name)
			continue
		}
		if g.Jobs != w.Jobs {
			t.Errorf("%s: plan has %d jobs, golden %d", g.Name, g.Jobs, w.Jobs)
		}
		if !floats.ApproxEqual(g.WRD, w.WRD, goldenEps) {
			t.Errorf("%s: WRD %.9g, golden %.9g", g.Name, g.WRD, w.WRD)
		}
		if !floats.ApproxEqual(g.PredictedSec, w.PredictedSec, goldenEps) {
			t.Errorf("%s: predicted %.9g s, golden %.9g s", g.Name, g.PredictedSec, w.PredictedSec)
		}
	}
}
