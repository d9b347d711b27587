package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// iqrFrac is (q75 − q25) ÷ median: the spread of one metric's rounds,
// the machine-noise gauge behind bench.round_iqr_frac.
func iqrFrac(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / m
}

// memCounters is the slice of runtime.MemStats a round's accounting
// needs. Reading it stops the world, so it is only read outside timed
// windows.
type memCounters struct {
	mallocs, totalAlloc uint64
	numGC               uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.NumGC}
}

// liveHeap reports the bytes of live heap objects after a collection,
// taking the lower of two readings a moment apart so a background
// goroutine still finishing (a snapshot builder) is not billed. This is
// HeapAlloc, not HeapInuse: in-use spans carry 25–35 % fragmentation
// here that moves ±3 % between runs of the same seed, live bytes ±0.5 %.
func liveHeap() uint64 {
	read := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	a := read()
	time.Sleep(20 * time.Millisecond)
	return min(a, read())
}

// roundSeries accumulates the per-round observations of one phase. All
// rounds of a phase do identical work. A count (allocations, bytes) is
// reported as the median over rounds, a rate by rate() below.
type roundSeries struct {
	perSec   []float64 // work units per second
	allocs   []float64 // heap allocations per work unit (whole process)
	bytes    []float64 // heap bytes allocated per work unit
	gcCycles []float64 // GC cycles that ran inside the timed window
}

// quietTail is how far from the quiet end of a phase's rounds the
// reported rate sits: the rounds' 90th percentile, not their median.
// Every round of a phase does identical work and starts from a collected
// heap, so what differs between rounds is the machine: other tenants
// only ever slow a round down. Measured on the 2-core sandbox in a noisy
// quarter hour, the quartile spread of ten runs of one build was 8–20 %
// for the median of the rounds and 5–10 % for this. (Latencies are the
// p50 of all their samples; see harness.latency.)
const quietTail = 0.10

// rate is the series' reported throughput: the quiet tail of its rounds.
func (s *roundSeries) rate() float64 { return quantile(s.perSec, 1-quietTail) }

// phase is one timed activity of a path; step runs one round of it.
type phase struct {
	weight float64 // share of the path's time
	min    int     // rounds it runs at least
	step   func()
	spent  time.Duration
	done   int
}

// interleave runs the phases a round at a time, always the one furthest
// behind its share of the time spent so far, until budget has passed and
// each has run its minimum. Every phase is thereby spread over the whole
// path: a slow second on the machine lands on a minority of each phase's
// rounds, which the reported quantile discards, instead of on most of
// one phase.
func interleave(budget time.Duration, phases ...*phase) {
	start := time.Now()
	for {
		over := time.Since(start) >= budget
		var pick *phase
		for _, p := range phases {
			if over && p.done >= p.min {
				continue
			}
			if pick == nil || p.spent.Seconds()/p.weight < pick.spent.Seconds()/pick.weight {
				pick = p
			}
		}
		if pick == nil {
			return
		}
		t := time.Now()
		pick.step()
		pick.spent += time.Since(t)
		pick.done++
	}
}

// timed runs one round of fixed work. A collection runs first, untimed,
// so no round starts with inherited GC debt (protocol rule 2); memory
// counters are read outside the window.
func (s *roundSeries) timed(units int, work func()) time.Duration {
	runtime.GC()
	before := readMem()
	start := time.Now()
	work()
	elapsed := time.Since(start)
	after := readMem()
	u := float64(units)
	if u == 0 {
		u = 1
	}
	s.perSec = append(s.perSec, u/elapsed.Seconds())
	s.allocs = append(s.allocs, float64(after.mallocs-before.mallocs)/u)
	s.bytes = append(s.bytes, float64(after.totalAlloc-before.totalAlloc)/u)
	s.gcCycles = append(s.gcCycles, float64(after.numGC-before.numGC))
	return elapsed
}

// gate is a reusable one-shot completion signal with a deadline: the
// callback that observes completion opens it, one waiter waits. Waiting
// allocates nothing, so it can sit inside a timed window.
type gate struct {
	ch    chan struct{}
	timer *time.Timer
}

func newGate() *gate {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &gate{ch: make(chan struct{}, 1), timer: t}
}

func (g *gate) open() {
	select {
	case g.ch <- struct{}{}:
	default:
	}
}

// drain discards an open nobody waited for.
func (g *gate) drain() {
	select {
	case <-g.ch:
	default:
	}
}

// wait blocks until open was called or fenceTimeout passed, and reports
// which.
func (g *gate) wait() bool { return g.waitOn(g.ch) }

// waitOn is wait for another signal of the gate's one waiter, under the
// same deadline and as free of allocation.
func (g *gate) waitOn(ch <-chan struct{}) bool {
	g.timer.Reset(fenceTimeout)
	select {
	case <-ch:
		if !g.timer.Stop() {
			<-g.timer.C
		}
		return true
	case <-g.timer.C:
		return false
	}
}
