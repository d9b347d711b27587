// Package catchment builds anycast catchment maps — which PoP each
// client population's BGP best path lands on — and closes the loop from
// observed per-PoP load back to routing policy with the platform's own
// steering knobs (per-neighbor community steering, selective AS-path
// prepending, withdraw/announce splits; paper §5's ingress-engineering
// experiments at population scale).
//
// The package is deliberately mechanism-free: it reads the synthetic
// Internet (internal/inet) and router FIB snapshots (internal/rib), and
// it emits Actions. The peering package owns the wiring that turns
// Actions into real announcements (peering/te.go).
package catchment

import (
	"math/rand"
	"sort"

	"repro/internal/inet"
)

// Population is a weighted group of clients homed at one AS. Weight is
// an integer client count so shares are exact and reproducible.
type Population struct {
	// ASN the clients sit behind.
	ASN uint32
	// Clients is the population's weight.
	Clients int
}

// GeneratePopulations places total clients across the topology's ASes
// proportionally to customer cone size (an AS that reaches more of the
// Internet downstream serves more eyeballs), with seeded multiplicative
// jitter so distinct seeds give distinct — but reproducible — maps.
// Apportionment uses largest remainders, so the returned populations
// sum to exactly total. ASes apportioned zero clients are omitted.
func GeneratePopulations(top *inet.Topology, total int, seed int64) []Population {
	asns := top.ASNs()
	if len(asns) == 0 || total <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, len(asns))
	var sum float64
	for i, asn := range asns {
		w := float64(len(top.CustomerCone(asn)))
		w *= 0.5 + rng.Float64() // jitter in [0.5, 1.5)
		weights[i] = w
		sum += w
	}

	type share struct {
		idx       int
		clients   int
		remainder float64
	}
	shares := make([]share, len(asns))
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		whole := int(exact)
		shares[i] = share{idx: i, clients: whole, remainder: exact - float64(whole)}
		assigned += whole
	}
	// Largest remainders take the leftover clients; ties break on the
	// lower ASN index so the result is a pure function of (topology,
	// total, seed).
	sort.SliceStable(shares, func(a, b int) bool {
		if shares[a].remainder != shares[b].remainder {
			return shares[a].remainder > shares[b].remainder
		}
		return shares[a].idx < shares[b].idx
	})
	for i := 0; i < total-assigned; i++ {
		shares[i%len(shares)].clients++
	}

	sort.Slice(shares, func(a, b int) bool { return shares[a].idx < shares[b].idx })
	out := make([]Population, 0, len(shares))
	for _, s := range shares {
		if s.clients == 0 {
			continue
		}
		out = append(out, Population{ASN: asns[s.idx], Clients: s.clients})
	}
	return out
}
