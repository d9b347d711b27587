package main

import (
	"os"
	"regexp"
	"testing"
	"time"
)

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at 1/64 scale with two rounds per phase,
// untraced and traced: every oracle must pass and the run must emit
// exactly the metric names declared for its mode.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{
				workload: w.Name, seed: defaultSeed, seconds: 0.1, trace: trace,
				minRounds: 2, samples: 10, outDir: t.TempDir(), processStart: time.Now(),
				// The smoke test cannot afford a quarter second per resync tick.
				scale: 64, resync: 10 * time.Millisecond,
			}
			h, err := run(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			decls := endToEnd
			if trace {
				decls = perLayer
			}
			if !report(h, decls) {
				t.Errorf("%s trace=%v: %v", w.Name, trace, h.problems)
			}
			if h.failed != 0 || h.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, trace, h.failed, h.attempted)
			}
			want := make(map[string]bool)
			for _, d := range decls {
				want[d.Name] = true
			}
			for name := range h.values {
				if !want[name] {
					t.Errorf("%s trace=%v: undeclared metric %s", w.Name, trace, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
			}
		}
	}
}

// TestDeclarations checks the names the contract constrains and that
// BENCHMARK.json is the declarations rendered.
func TestDeclarations(t *testing.T) {
	seen := make(map[string]bool)
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			if !metricNameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is not of the contract's shape", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, w := range workloads {
		if !metricNameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, duplicate, or why over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != describe() {
		t.Error("BENCHMARK.json differs from the declarations; regenerate it with `go run ./bench -describe > BENCHMARK.json`")
	}
}

// TestZeroWorkRound asserts the harness itself allocates nothing inside
// a timed window: a round with no work reports zero allocations.
func TestZeroWorkRound(t *testing.T) {
	var s roundSeries
	for i := 0; i < 3; i++ {
		s.timed(1, func() {})
	}
	g := newGate()
	s.timed(1, func() {
		g.open()
		if !g.wait() {
			t.Error("gate did not open")
		}
	})
	for i, a := range s.allocs {
		if a != 0 {
			t.Errorf("zero-work round %d reported %v allocations", i, a)
		}
	}
}
