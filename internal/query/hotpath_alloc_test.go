package query

import "testing"

var (
	hotSinkNorm, hotSinkKey string
	hotSinkOK               bool
)

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the normalization memo: a repeated text's lookup, and the whole
// Normalize call around it, must not allocate.
func TestHotPathAllocs(t *testing.T) {
	m := NewMemo(4, "\x00fp")
	if _, _, q, err := m.Normalize(q11); err != nil || q == nil {
		t.Fatalf("warm-up should miss and parse: q=%v err=%v", q, err)
	}
	if n := testing.AllocsPerRun(100, func() { hotSinkNorm, hotSinkKey, hotSinkOK = m.lookup(q11) }); n != 0 {
		t.Errorf("Memo.lookup allocates %.0f times per call; //saqp:hotpath functions must not allocate", n)
	}
	if n := testing.AllocsPerRun(100, func() { hotSinkNorm, hotSinkKey, _, _ = m.Normalize(q11) }); n != 0 {
		t.Errorf("Memo.Normalize hit allocates %.0f times per call", n)
	}
}
