package query_test

import (
	"strings"
	"testing"

	"saqp/internal/query"
	"saqp/internal/workload"
)

// normalize parses and renders sql.
func normalize(t testing.TB, sql string) string {
	t.Helper()
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return q.String()
}

// Two different queries once shared a normalized text — and so a plan
// cache key, routing fingerprint and trace ID — because a quote inside a
// string literal was rendered without its escape.
const (
	oneQuotedPred = `SELECT c_custkey FROM customer WHERE c_mktsegment = 'A'' AND c_name = ''B'`
	twoPreds      = `SELECT c_custkey FROM customer WHERE c_mktsegment = 'A' AND c_name = 'B'`
)

func TestQuoteEscapeKeepsQueriesDistinct(t *testing.T) {
	a, b := normalize(t, oneQuotedPred), normalize(t, twoPreds)
	if a == b {
		t.Fatalf("one-predicate and two-predicate queries share the normalized text %q", a)
	}
	if want := `SELECT c_custkey FROM customer WHERE c_mktsegment = 'A'' AND c_name = ''B'`; a != want {
		t.Errorf("normalized %q, want %q", a, want)
	}
	const obrien = `SELECT c_custkey FROM customer WHERE c_name = 'O''Brien'`
	norm := normalize(t, obrien)
	if norm != obrien {
		t.Errorf("normalized %q, want %q", norm, obrien)
	}
	if again := normalize(t, norm); again != norm {
		t.Errorf("normalized text does not re-parse to itself: %q -> %q", norm, again)
	}
}

// TestExponentLiterals covers the lexer's exponent form: every numeric
// literal the renderer prints in %g exponent form must parse back.
func TestExponentLiterals(t *testing.T) {
	for _, tc := range []struct {
		lit  string
		want string // normalized literal; "" means the query must not parse
	}{
		{"1e+06", "1e+06"},
		{"1E6", "1e+06"},
		{"1e6", "1e+06"},
		{"1e-05", "1e-05"},
		{"1.23456789e+08", "1.23456789e+08"},
		{"-2.5e-08", "-2.5e-08"},
		{"2.5E-8", "2.5e-08"},
		{"1e5", "100000"},
		{"1e0", "1"},
		{"1000000", "1e+06"},
		{"0.00001", "1e-05"},
		{"123456789", "1.23456789e+08"},
		{"5e", ""},    // no digits: 'e' is trailing input
		{"5e+", ""},   // sign without digits
		{"1e400", ""}, // out of float64 range
		{"1e+ 5", ""}, // the exponent's digits must follow directly
	} {
		sql := "SELECT a FROM t WHERE x < " + tc.lit
		q, err := query.Parse(sql)
		if tc.want == "" {
			if err == nil {
				t.Errorf("%q parsed as %q, want an error", tc.lit, q.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.lit, err)
			continue
		}
		norm := q.String()
		if want := "SELECT a FROM t WHERE x < " + tc.want; norm != want {
			t.Errorf("%q normalized to %q, want %q", tc.lit, norm, want)
		}
		if again := normalize(t, norm); again != norm {
			t.Errorf("%q: normalized text does not re-parse to itself: %q -> %q", tc.lit, norm, again)
		}
	}
}

// TestRenderingsReparse checks that every rendering in the render corpus
// is a fixed point of parse-and-render, so any served query's Result.SQL
// can be resubmitted as is.
func TestRenderingsReparse(t *testing.T) {
	for _, line := range renderCorpus(t) {
		label, text, _ := strings.Cut(line, "\t")
		if strings.HasPrefix(label, "float-") {
			continue
		}
		if again := normalize(t, text); again != text {
			t.Errorf("%s: %q re-normalized to %q", label, text, again)
		}
	}
}

// FuzzNormalize checks the normalization contract on any text that
// parses: the normalized text is a fixed point of parse-and-render, and
// the memo agrees with a direct parse and render on a miss and on a hit.
func FuzzNormalize(f *testing.F) {
	for _, name := range workload.TPCHNames() {
		src, err := workload.TPCHSQL(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add(oneQuotedPred)
	f.Add(twoPreds)
	f.Add(`SELECT c_custkey FROM customer WHERE c_name = 'O''Brien'`)
	f.Add(`SELECT o_orderkey FROM orders WHERE o_totalprice >= 1e+06 AND o_orderdate < 1.9950101e+07 AND o_custkey > 1e-05`)
	for _, src := range renderSQL {
		f.Add(src)
	}
	g := workload.NewGenerator(1)
	for i := 0; i < 8; i++ {
		q, _, err := g.RandomQuery()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q.String())
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := query.Parse(sql)
		if err != nil {
			return
		}
		norm := q.String()
		q2, err := query.Parse(norm)
		if err != nil {
			t.Fatalf("normalized text %q does not parse: %v", norm, err)
		}
		if again := q2.String(); again != norm {
			t.Fatalf("normalization is not idempotent:\n  once  %q\n  twice %q", norm, again)
		}
		m := query.NewMemo(2, "\x00fp")
		for i := 0; i < 2; i++ {
			mnorm, key, mq, err := m.Normalize(sql)
			if err != nil {
				t.Fatalf("memo pass %d: %v", i, err)
			}
			if mnorm != norm || key != norm+"\x00fp" {
				t.Fatalf("memo pass %d: (%q, %q), want (%q, norm+suffix)", i, mnorm, key, norm)
			}
			if (mq == nil) != (i == 1) {
				t.Fatalf("memo pass %d returned AST %v; want one only on the miss", i, mq)
			}
		}
	})
}
