package catchment

import (
	"hash/fnv"
	"net/netip"
	"sort"

	"repro/internal/inet"
	"repro/internal/rib"
)

// NeighborRef identifies one of a PoP's local BGP neighbors: the
// platform-wide neighbor ID (the community value used for steering) and
// the neighbor's AS number (how the neighbor shows up in AS paths).
type NeighborRef struct {
	PoP string `json:"pop"`
	ID  uint32 `json:"id"`
	ASN uint32 `json:"asn"`
}

// PoPView is one PoP's contribution to catchment resolution: its local
// neighbor set plus what its FIB snapshot says about the anycast
// prefix. The FIB digest fingerprints the full snapshot contents in
// Walk order, so two views built from logically identical FIBs — e.g.
// the same routes loaded into 1-, 2-, and 16-shard tables — must match
// bit for bit (the consumer-side guard on snapshot determinism).
type PoPView struct {
	PoP       string        `json:"pop"`
	Neighbors []NeighborRef `json:"neighbors"`
	// Announced reports whether the anycast prefix is present in the
	// PoP's experiment FIB snapshot.
	Announced bool `json:"announced"`
	// FIBVersion and FIBRoutes describe the snapshot consulted.
	FIBVersion uint64 `json:"fib_version"`
	FIBRoutes  int    `json:"fib_routes"`
	// FIBDigest hashes (prefix, peer, AS path) for every best route in
	// Walk order.
	FIBDigest uint64 `json:"fib_digest"`
}

// ViewFromFIB builds a PoP's view from its experiment-FIB snapshot.
// snap may be nil (PoP not yet announcing), leaving the view empty but
// valid.
func ViewFromFIB(pop string, snap *rib.Snapshot, neighbors []NeighborRef, prefix netip.Prefix) PoPView {
	v := PoPView{PoP: pop, Neighbors: append([]NeighborRef(nil), neighbors...)}
	if snap == nil {
		return v
	}
	v.FIBVersion = snap.Version()
	v.FIBRoutes = snap.Routes()
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (56 - 8*i))
		}
		h.Write(buf[:])
	}
	snap.Walk(func(p netip.Prefix, best *rib.Path) bool {
		if p == prefix.Masked() {
			v.Announced = true
		}
		b, _ := p.MarshalBinary()
		h.Write(b)
		h.Write([]byte(best.Peer))
		if best.Attrs != nil {
			for _, asn := range best.Attrs.ASPathFlat() {
				put(uint64(asn))
			}
		}
		return true
	})
	v.FIBDigest = h.Sum64()
	return v
}

// Assignment is where one population's best path lands.
type Assignment struct {
	// PoP serving the population ("" when the population has no route
	// to the prefix, or its entry neighbor maps to no known PoP).
	PoP string `json:"pop"`
	// Via is the neighbor AS the path enters the platform through.
	Via uint32 `json:"via"`
}

// Map is a resolved catchment: every population's assignment plus
// per-PoP client weights.
type Map struct {
	Prefix      netip.Prefix          `json:"prefix"`
	Assignments map[uint32]Assignment `json:"assignments"`
	// PoPClients sums client weights per serving PoP.
	PoPClients map[string]int `json:"pop_clients"`
	// Unreachable counts clients with no route to the prefix (or an
	// entry neighbor no view claims).
	Unreachable int `json:"unreachable"`
	// Total is the full client weight, reachable or not.
	Total int `json:"total"`
	// FIBDigests records each consulted view's FIB fingerprint.
	FIBDigests map[string]uint64 `json:"fib_digests"`
}

// Resolve computes the catchment map for prefix: for each population it
// reads the AS's converged best path from the synthetic Internet, finds
// the platform ASN in it, and attributes the clients to the PoP hosting
// the entry neighbor (the path element just before the platform ASN),
// using the views' neighbor sets as the via→PoP mapping. An ASN hosted
// at several PoPs resolves to the lexicographically first PoP name —
// deterministic, and logged loudly by the callers that care.
func Resolve(top *inet.Topology, platformASN uint32, prefix netip.Prefix, views []PoPView, pops []Population) *Map {
	viaToPoP := make(map[uint32]string)
	digests := make(map[string]uint64, len(views))
	for _, v := range views {
		digests[v.PoP] = v.FIBDigest
		for _, n := range v.Neighbors {
			if cur, ok := viaToPoP[n.ASN]; !ok || v.PoP < cur {
				viaToPoP[n.ASN] = v.PoP
			}
		}
	}

	m := &Map{
		Prefix:      prefix,
		Assignments: make(map[uint32]Assignment, len(pops)),
		PoPClients:  make(map[string]int),
		FIBDigests:  digests,
	}
	for _, p := range pops {
		m.Total += p.Clients
		asgn := resolveOne(top, platformASN, prefix, viaToPoP, p.ASN)
		m.Assignments[p.ASN] = asgn
		if asgn.PoP == "" {
			m.Unreachable += p.Clients
			continue
		}
		m.PoPClients[asgn.PoP] += p.Clients
	}
	return m
}

func resolveOne(top *inet.Topology, platformASN uint32, prefix netip.Prefix, viaToPoP map[uint32]string, asn uint32) Assignment {
	rt := top.RouteAt(asn, prefix)
	if rt == nil {
		return Assignment{}
	}
	for i, hop := range rt.Path {
		if hop != platformASN {
			continue
		}
		var via uint32
		if i > 0 {
			via = rt.Path[i-1]
		} else {
			// The deciding AS is directly attached; its own ASN is the
			// entry point.
			via = asn
		}
		return Assignment{PoP: viaToPoP[via], Via: via}
	}
	return Assignment{}
}

// Shares returns each PoP's fraction of the reachable client weight.
func (m *Map) Shares() map[string]float64 {
	reachable := m.Total - m.Unreachable
	out := make(map[string]float64, len(m.PoPClients))
	if reachable <= 0 {
		return out
	}
	for pop, n := range m.PoPClients {
		out[pop] = float64(n) / float64(reachable)
	}
	return out
}

// ViaWeightsOf returns the client weight per entry neighbor at pop —
// the granularity community steering works at — given the populations
// the map was resolved for.
func (m *Map) ViaWeightsOf(pop string, pops []Population) map[uint32]int {
	out := make(map[uint32]int)
	for _, p := range pops {
		a, ok := m.Assignments[p.ASN]
		if !ok || a.PoP != pop {
			continue
		}
		out[a.Via] += p.Clients
	}
	return out
}

// Imbalance returns the worst relative deviation from the targets:
// max over target PoPs of |share − target| / target. Targets with zero
// or negative weight contribute |share| directly (any load on a
// zero-target PoP is pure excess).
func (m *Map) Imbalance(targets map[string]float64) float64 {
	shares := m.Shares()
	worst := 0.0
	for pop, target := range targets {
		share := shares[pop]
		var dev float64
		if target > 0 {
			dev = abs(share-target) / target
		} else {
			dev = share
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// PoPNames returns the serving PoPs, sorted.
func (m *Map) PoPNames() []string {
	out := make([]string, 0, len(m.PoPClients))
	for pop := range m.PoPClients {
		out = append(out, pop)
	}
	sort.Strings(out)
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
