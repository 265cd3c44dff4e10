package query

import (
	"fmt"
	"sync"
	"testing"
)

func TestMemoHitMatchesParse(t *testing.T) {
	m := NewMemo(8, "\x00fp")
	norm, key, q, err := m.Normalize(q11)
	if err != nil {
		t.Fatal(err)
	}
	if q == nil {
		t.Fatal("a miss must return the fresh AST")
	}
	want, err := Parse(q11)
	if err != nil {
		t.Fatal(err)
	}
	if norm != want.String() || key != want.String()+"\x00fp" {
		t.Fatalf("miss: norm %q key %q, want %q + suffix", norm, key, want.String())
	}
	norm2, key2, q2, err := m.Normalize(q11)
	if err != nil || q2 != nil || norm2 != norm || key2 != key {
		t.Fatalf("hit: (%q, %q, %v, %v), want (%q, %q, nil, nil)", norm2, key2, q2, err, norm, key)
	}
	if hits, misses := m.Counters(); hits != 1 || misses != 1 {
		t.Errorf("counters: %d hits %d misses, want 1 and 1", hits, misses)
	}
}

func TestMemoNeverMemoizesParseErrors(t *testing.T) {
	m := NewMemo(8, "")
	for i := 0; i < 2; i++ {
		if _, _, _, err := m.Normalize("SELECT FROM WHERE"); err == nil {
			t.Fatalf("attempt %d: garbage SQL should fail", i)
		}
	}
	if hits, misses := m.Counters(); hits != 0 || misses != 0 {
		t.Errorf("parse errors counted as %d hits %d misses", hits, misses)
	}
	if len(m.cur)+len(m.prev) != 0 {
		t.Errorf("parse errors were memoized: %d entries", len(m.cur)+len(m.prev))
	}
}

// TestMemoGenerations walks the two-generation policy at capacity 2: a
// full cur retires to prev, a prev hit is promoted back, and a text in
// neither generation is parsed again.
func TestMemoGenerations(t *testing.T) {
	m := NewMemo(2, "")
	sql := func(i int) string { return fmt.Sprintf("SELECT a FROM t WHERE x < %d", i) }
	hit := func(i int) bool {
		t.Helper()
		_, _, q, err := m.Normalize(sql(i))
		if err != nil {
			t.Fatal(err)
		}
		return q == nil
	}
	for i, tc := range []struct {
		text int
		hit  bool
		cur  int
		prev int
	}{
		{0, false, 1, 0},
		{1, false, 2, 0},
		{0, true, 2, 0},  // hit in cur
		{2, false, 1, 2}, // cur {0,1} retires to prev
		{0, true, 2, 2},  // promoted from prev into cur {2,0}
		{3, false, 1, 2}, // cur {2,0} retires; {0,1} is dropped
		{1, false, 2, 2}, // 1 aged out with the dropped generation
		{0, true, 1, 2},  // prev hit promoted into a full cur: cur {3,1} retires
	} {
		if got := hit(tc.text); got != tc.hit {
			t.Fatalf("step %d (text %d): hit=%v, want %v", i, tc.text, got, tc.hit)
		}
		if len(m.cur) != tc.cur || len(m.prev) != tc.prev {
			t.Fatalf("step %d: generations %d/%d, want %d/%d", i, len(m.cur), len(m.prev), tc.cur, tc.prev)
		}
	}
}

func TestMemoConcurrentAgrees(t *testing.T) {
	m := NewMemo(4, "")
	texts := make([]string, 12)
	want := make([]string, len(texts))
	for i := range texts {
		texts[i] = fmt.Sprintf("select  a, sum(b) from t where x >= %d group by a", i)
		q, err := Parse(texts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = q.String()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				i := (g*7 + r) % len(texts)
				norm, _, _, err := m.Normalize(texts[i])
				if err == nil && norm != want[i] {
					err = fmt.Errorf("text %d normalized to %q, want %q", i, norm, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(m.cur); n > 4 {
		t.Errorf("cur holds %d entries, capacity 4", n)
	}
	if n := len(m.prev); n > 4 {
		t.Errorf("prev holds %d entries, capacity 4", n)
	}
}
