package query_test

import (
	"testing"

	"saqp/internal/query"
	"saqp/internal/workload"
)

// tpchMix returns the canonical TPC-H texts, the serving benchmarks'
// request mix.
func tpchMix(b *testing.B) []string {
	b.Helper()
	var mix []string
	for _, name := range workload.TPCHNames() {
		src, err := workload.TPCHSQL(name)
		if err != nil {
			b.Fatal(err)
		}
		mix = append(mix, src)
	}
	return mix
}

// BenchmarkMicroParseNormalize measures a normalization miss: lex, parse
// and render one TPC-H text — the per-request cost the memo removes from
// every repeat.
func BenchmarkMicroParseNormalize(b *testing.B) {
	mix := tpchMix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(mix[i%len(mix)])
		if err != nil {
			b.Fatal(err)
		}
		_ = q.String()
	}
}

// BenchmarkMicroNormalizeMemoHit measures a normalization hit on a warm
// memo over the same mix. The hit path is //saqp:hotpath, so the
// bench-micro gate holds it at zero allocs/op.
func BenchmarkMicroNormalizeMemoHit(b *testing.B) {
	mix := tpchMix(b)
	m := query.NewMemo(len(mix), "\x00fp")
	for _, sql := range mix {
		if _, _, _, err := m.Normalize(sql); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, q, err := m.Normalize(mix[i%len(mix)]); err != nil || q != nil {
			b.Fatalf("warm text missed: %v", err)
		}
	}
}
