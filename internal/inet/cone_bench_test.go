package inet

import "testing"

// TestConeCacheInvalidation checks that CustomerCone results are
// memoized, that topology mutations invalidate the cache, and that
// callers cannot corrupt cached entries through the returned slice.
func TestConeCacheInvalidation(t *testing.T) {
	top := NewTopology()
	top.AddAS(10, "transit")
	top.AddAS(20, "edge")
	top.AddAS(30, "edge")
	if err := top.AddTransit(20, 10); err != nil {
		t.Fatal(err)
	}

	cone := top.CustomerCone(10)
	if len(cone) != 2 || cone[0] != 10 || cone[1] != 20 {
		t.Fatalf("CustomerCone(10) = %v, want [10 20]", cone)
	}

	// Mutating the returned slice must not poison the cache.
	cone[0] = 999
	if again := top.CustomerCone(10); len(again) != 2 || again[0] != 10 {
		t.Fatalf("cache corrupted through returned slice: %v", again)
	}

	// A new customer edge must invalidate the memoized cone.
	if err := top.AddTransit(30, 10); err != nil {
		t.Fatal(err)
	}
	cone = top.CustomerCone(10)
	if len(cone) != 3 || cone[2] != 30 {
		t.Fatalf("CustomerCone(10) after AddTransit = %v, want [10 20 30]", cone)
	}

	// Adding an AS also invalidates (the graph may grow under it next).
	top.AddAS(40, "edge")
	if err := top.AddTransit(40, 20); err != nil {
		t.Fatal(err)
	}
	cone = top.CustomerCone(10)
	if len(cone) != 4 {
		t.Fatalf("CustomerCone(10) after nested customer = %v, want 4 ASes", cone)
	}

	// Explicit invalidation keeps working after a recompute.
	top.InvalidateConeCache()
	if cone = top.CustomerCone(10); len(cone) != 4 {
		t.Fatalf("CustomerCone(10) after InvalidateConeCache = %v", cone)
	}
}

func benchTopology(b *testing.B) *Topology {
	b.Helper()
	return Generate(GenConfig{Tier1: 12, Tier2: 80, Edges: 900, PeeringDegree: 6, Seed: 47065})
}

// BenchmarkCustomerConeCold measures the uncached BFS: the cache is
// dropped before every lookup, as if the topology mutated each time.
func BenchmarkCustomerConeCold(b *testing.B) {
	top := benchTopology(b)
	asns := top.ASNs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.InvalidateConeCache()
		top.CustomerCone(asns[i%len(asns)])
	}
}

// BenchmarkCustomerConeMemoized measures the steady state the
// population generator sees: repeated lookups on a static topology.
func BenchmarkCustomerConeMemoized(b *testing.B) {
	top := benchTopology(b)
	asns := top.ASNs()
	for _, asn := range asns {
		top.CustomerCone(asn) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.CustomerCone(asns[i%len(asns)])
	}
}

// InvalidateConeCache drops all memoized customer cones, so a benchmark
// measures the cold path.
func (t *Topology) InvalidateConeCache() {
	t.mu.Lock()
	t.coneCache = nil
	t.mu.Unlock()
}
