package main

import (
	"encoding/json"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

const (
	// refOps and jsonOps are how many operations of each kind one gauge
	// reading runs: about 60 and 30 ms at nominal speed.
	refOps  = 20000
	jsonOps = 8000
	// refNominalUS and jsonNominalUS are roughly the operations' times,
	// in µs, on a quiet 2-vCPU Xeon virtual machine. They only set the
	// scale of the normalized metrics: at this speed they equal the raw
	// ones.
	refNominalUS  = 3.0
	jsonNominalUS = 3.0
)

// gauge measures the host's current speed with fixed reference kernels
// owned by the benchmark. On a shared virtual machine the CPU the
// program gets runs up to a third slower for minutes at a time, and
// briefly twice as slow, while other tenants are busy; the same code
// then takes proportionally longer. Reading the gauge before and after each
// measured slice of a run, and dividing each slice's times by the
// slowdown read around it, removes that drift from the metrics while
// keeping every change to the program's own code visible: the kernels
// never call the program.
type gauge struct {
	m   map[uint64]uint64
	xs  []float64
	buf []byte
	sum float64

	row  jsonRow
	wall []float64 // slowdown over nominal speed, one per reading
	cpu  []float64 // the same in process CPU time
}

// jsonRow is what the gauge's JSON operation encodes and decodes.
type jsonRow struct {
	Name  string
	IDs   []int
	Ratio float64
}

// newGauge returns a gauge with its buffers allocated, so that op
// allocates nothing.
func newGauge() *gauge {
	return &gauge{m: make(map[uint64]uint64, 1024), xs: make([]float64, 48), buf: make([]byte, 0, 32)}
}

// op is one reference operation: hashed map updates, a small sort,
// number formatting and floating point, the kinds of work the serving
// path does, in a few microseconds.
func (g *gauge) op(i uint64) {
	for j := uint64(0); j < 32; j++ {
		k := splitmix(i<<5|j) & 1023
		g.m[k] += k
	}
	for j := range g.xs {
		g.xs[j] = float64(splitmix(i+uint64(j))%100000) * 1.0001
	}
	slices.Sort(g.xs)
	g.buf = strconv.AppendFloat(g.buf[:0], g.xs[24], 'g', -1, 64)
	g.sum += math.Sqrt(g.xs[47]) + float64(len(g.buf))
}

// jsonOp is one JSON round trip of a small record through the standard
// library's reflection-driven codec: a larger code footprint than op's,
// and a dozen small allocations.
func (g *gauge) jsonOp(i int) {
	data, err := json.Marshal(jsonRow{Name: strconv.Itoa(i), IDs: []int{i, i + 1}, Ratio: float64(i) / 3})
	if err == nil {
		err = json.Unmarshal(data, &g.row)
	}
	if err != nil {
		panic(err)
	}
}

// read times refOps reference operations and jsonOps JSON round trips
// and records the host's slowdown: the geometric mean of each kind's
// time over its nominal time. A forced collection first finishes any
// garbage collection the program left in progress, collection is off
// while the kernel runs, and a second forced collection then frees the
// kernel's garbage, so the program's heap neither slows a reading nor
// is left fuller by one.
func (g *gauge) read() {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	c0, t0 := cpuTime(), time.Now()
	for i := uint64(0); i < refOps; i++ {
		g.op(i)
	}
	c1, t1 := cpuTime(), time.Now()
	for i := 0; i < jsonOps; i++ {
		g.jsonOp(i)
	}
	c2, t2 := cpuTime(), time.Now()
	debug.SetGCPercent(gcPercent)
	runtime.GC()
	slowdown := func(ref, js time.Duration) float64 {
		return math.Sqrt(ref.Seconds() * 1e6 / refOps / refNominalUS * js.Seconds() * 1e6 / jsonOps / jsonNominalUS)
	}
	g.wall = append(g.wall, slowdown(t1.Sub(t0), t2.Sub(t1)))
	g.cpu = append(g.cpu, slowdown(c1-c0, c2-c1))
}

// around returns the wall-clock and CPU slowdown of the host while the
// work between readings i and i+1 ran: the geometric mean of the two.
// A time measured there, divided by the slowdown, is its time at
// nominal host speed.
func (g *gauge) around(i int) (wall, cpu float64) {
	return math.Sqrt(g.wall[i] * g.wall[i+1]), math.Sqrt(g.cpu[i] * g.cpu[i+1])
}
