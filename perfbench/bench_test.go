package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// streamBytes serializes the first n requests of a stream.
func streamBytes(t *testing.T, w string, seed uint64, n int64) []byte {
	t.Helper()
	st, err := newStream(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := int64(0); i < n; i++ {
		r := st.at(i)
		fmt.Fprintf(&buf, "%d\t%s\n", r.seed, r.sql)
	}
	return buf.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streamBytes(t, w, 7, 2000), streamBytes(t, w, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", w)
		}
		if bytes.Equal(a, streamBytes(t, w, 8, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w)
		}
	}
}

func TestAdhocStreamIsDistinct(t *testing.T) {
	st, err := newStream(wAdhoc, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	n := int64(len(st.queries))
	for i := int64(0); i < n; i++ {
		seen[st.at(i).sql] = true
	}
	if share := float64(len(seen)) / float64(n); share < 0.95 {
		t.Fatalf("%d of %d adhoc-learn requests are distinct SQL (%.3f), want >= 0.95", len(seen), n, share)
	}
}

func TestTPCHStreamMeetsEverySeed(t *testing.T) {
	st, err := newStream(wTPCH, 1)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[[2]int]bool)
	for i := int64(0); i < int64(len(st.queries)*len(st.seeds)); i++ {
		r := st.at(i)
		pairs[[2]int{r.qi, r.si}] = true
	}
	if want := len(st.queries) * len(st.seeds); len(pairs) != want {
		t.Fatalf("one cycle covers %d (query, seed) pairs, want %d", len(pairs), want)
	}
}

func TestNearbySeedsShareNoTPCHSeed(t *testing.T) {
	seen := make(map[uint64]uint64)
	for seed := uint64(1); seed <= 20; seed++ {
		st, err := newStream(wTPCH, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range st.seeds {
			if prev, ok := seen[s]; ok {
				t.Fatalf("seeds %d and %d both simulate with seed %d", prev, seed, s)
			}
			seen[s] = seed
		}
	}
}

func TestQuantileWantsSamplesBeyond(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 1000; v++ {
		h.add(v)
	}
	p99, beyond, err := h.quantile(0.99, minBeyond)
	if err != nil || beyond != 10 || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, err %v; want 990 with 10 beyond", p99, beyond, err)
	}
	h = hist{}
	for v := uint64(1); v <= 999; v++ {
		h.add(v)
	}
	if _, beyond, err := h.quantile(0.99, minBeyond); err == nil {
		t.Fatalf("p99 of 999 samples leaves %d beyond, yet was reported", beyond)
	}
	if _, _, err := (&hist{}).quantile(0.5, 0); err == nil {
		t.Fatal("median of no samples was reported")
	}
}

func TestHistBucketsAreNarrow(t *testing.T) {
	for v := uint64(1); v < 1<<40; v = v*3 + 1 {
		got := bucketValue(bucketOf(v))
		if rel := math.Abs(got-float64(v)) / float64(v); rel > 1.0/(1<<histSub) {
			t.Fatalf("value %d lands in a bucket reported as %v (%.4f off)", v, got, rel)
		}
	}
	if i := bucketOf(math.MaxUint64); i >= histBuckets {
		t.Fatalf("largest value lands in bucket %d of %d", i, histBuckets)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, Parent: -1, Name: "root", Start: 0, End: 100},
		{Trace: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{Trace: 1, Parent: 1, Name: "a.1", Start: 15, End: 20},
		{Trace: 1, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{Trace: 1, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past root
		{Trace: 2, Parent: -1, Name: "root", Start: 200, End: 210},
		{Trace: 2, Parent: 5, Name: "a", Start: 202, End: 204},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 5, 30, 30, 10 - 2, 2}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	lt := layerTimes(spans)
	if r := lt["root"]; r.Calls != 2 || r.Self != 48 || r.Total != 110 {
		t.Errorf("root layer = %+v, want 2 calls, self 48, total 110", *r)
	}
	if n := len(firstTraces(spans, 1)); n != 5 {
		t.Errorf("first trace has %d spans, want 5", n)
	}
}

func TestGaugeAllocatesNothing(t *testing.T) {
	g := newGauge()
	g.op(0) // the map's buckets for its 1024 keys
	if n := testing.AllocsPerRun(100, func() { g.op(12345) }); n != 0 {
		t.Errorf("a reference operation allocates %v times; its time must not depend on the program's heap", n)
	}
}

func TestMergeScaledScalesEverySample(t *testing.T) {
	var h, half hist
	for v := uint64(1000); v < 200000; v += 7 {
		h.add(v)
	}
	half.mergeScaled(&h, 0.5)
	if half.n != h.n {
		t.Fatalf("merged %d samples of %d", half.n, h.n)
	}
	for _, p := range []float64{0.5, 0.99} {
		want, _, err := h.quantile(p, minBeyond)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := half.quantile(p, minBeyond)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got/(want/2)-1) > 0.005 {
			t.Errorf("p%g of the halved samples = %v, want %v", p*100, got, want/2)
		}
	}
}
