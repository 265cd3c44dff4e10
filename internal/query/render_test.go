package query_test

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saqp/internal/query"
	"saqp/internal/workload"
)

var updateRender = flag.Bool("update-render", false,
	"rewrite testdata/render.golden.gz from the current renderer")

// renderGolden holds the normalized renderings the renderer must keep
// byte-identical: every cache key, routing fingerprint and trace ID is
// derived from them.
var renderGolden = filepath.Join("testdata", "render.golden.gz")

// renderSQL covers the rendering branches the TPC-H set and the
// generator leave out: HAVING (aggregate and count(*)), ORDER BY on
// aggregates and DESC, LIMIT, MAPJOIN hints, string IN lists, column
// arithmetic and every comparison operator.
var renderSQL = []string{
	`SELECT l_returnflag, count(*), sum(l_quantity), avg(l_extendedprice*l_discount), min(l_tax), max(l_quantity) FROM lineitem GROUP BY l_returnflag HAVING count(*) >= 5 AND sum(l_quantity) > 100 ORDER BY sum(l_quantity) DESC, l_returnflag LIMIT 10`,
	`SELECT /*+ MAPJOIN(nation, region) */ n_name, count(*) FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey AND r.r_name IN ('ASIA', 'EUROPE') GROUP BY n_name ORDER BY count(*) DESC`,
	`select o_orderkey from orders where o_totalprice between 1000.5 and 200000 and o_orderdate <> 19950101 and o_custkey != 7 and o_shippriority <= 0 and o_orderkey > -3 limit 0`,
	`SELECT c_name, c_acctbal-c_custkey, c_acctbal+c_custkey, c_acctbal/c_custkey FROM customer WHERE c_mktsegment = 'BUILDING' AND c_acctbal < 0.000001 ORDER BY c_name DESC`,
	`SELECT ps_partkey FROM partsupp WHERE ps_availqty IN (1, 22, 333) AND ps_supplycost >= 1234567.125`,
}

// renderFloats exercises %g's switch between plain and exponent forms.
var renderFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.07, 100.5, 1e5, 1e6, 123456, 1234567,
	123456789, 19950101, 1e-4, 1e-5, 0.00001234, 1e20, 1e21, 1e100,
	5e-324, math.MaxFloat64, -2.5e-8, 3.14159265358979,
}

// renderCorpus returns one "label\trendering" line per rendering: the
// TPC-H set parsed from text, renderSQL, renderFloats as literals, and
// 5000 generator queries rendered from their ASTs.
func renderCorpus(t testing.TB) []string {
	t.Helper()
	var lines []string
	for _, name := range workload.TPCHNames() {
		src, err := workload.TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, "tpch-"+name+"\t"+q.String())
	}
	for i, src := range renderSQL {
		q, err := query.Parse(src)
		if err != nil {
			t.Fatalf("renderSQL[%d]: %v", i, err)
		}
		lines = append(lines, fmt.Sprintf("sql-%d\t%s", i, q.String()))
	}
	for i, f := range renderFloats {
		lines = append(lines, fmt.Sprintf("float-%d\t%s", i, query.NumLit(f).String()))
	}
	g := workload.NewGenerator(2018)
	for i := 0; i < 5000; i++ {
		q, _, err := g.RandomQuery()
		if err != nil {
			t.Fatalf("generator query %d: %v", i, err)
		}
		lines = append(lines, fmt.Sprintf("gen-%d\t%s", i, q.String()))
	}
	return lines
}

// TestRenderGolden pins the normalized rendering byte-for-byte against
// renderings captured before the renderer moved from fmt to append
// writers.
func TestRenderGolden(t *testing.T) {
	got := renderCorpus(t)
	if *updateRender {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(zw, strings.Join(got, "\n")+"\n"); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(renderGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(renderGolden)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("corpus has %d renderings, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("rendering changed:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more", bad-5)
	}
}
