package eval

// The synthetic inputs of the scalability evaluation (§6): route tables
// of configurable size (Fig. 6a), BGP update streams at configurable
// rates (Fig. 6b), and the exchange profiles of §4.2.

import (
	"math/rand"
	"net/netip"

	"repro/internal/bgp"
)

// RouteSpec is one synthetic route.
type RouteSpec struct {
	Prefix netip.Prefix
	Attrs  *bgp.PathAttrs
}

// Generator produces deterministic synthetic routes and updates.
type Generator struct {
	rng *rand.Rand
	// NeighborASN is the first hop of generated paths.
	NeighborASN uint32
	// NextHop is the next hop of generated routes.
	NextHop netip.Addr
}

// NewGenerator creates a generator seeded deterministically.
func NewGenerator(seed int64, neighborASN uint32, nextHop netip.Addr) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), NeighborASN: neighborASN, NextHop: nextHop}
}

// prefixFor maps an index to a unique prefix. Indexes spread across the
// 2000::-free IPv4 unicast space as /24s; beyond 2^21 they continue as
// /25s, /26s, ... so arbitrarily many unique prefixes exist.
func prefixFor(i int) netip.Prefix {
	bits := 24
	for i >= 1<<21 {
		i -= 1 << 21
		bits++
	}
	addr := netip.AddrFrom4([4]byte{
		byte(1 + (i>>16)&0x7f), byte(i >> 8), byte(i), 0,
	})
	return netip.PrefixFrom(addr, bits).Masked()
}

// Route generates the i-th route. The same (seed, i) yields the same
// route.
func (g *Generator) Route(i int) RouteSpec {
	pathLen := 2 + g.rng.Intn(4) // 3-6 hops including neighbor
	asns := make([]uint32, 0, pathLen+1)
	asns = append(asns, g.NeighborASN)
	for j := 0; j < pathLen; j++ {
		asns = append(asns, uint32(1000+g.rng.Intn(60000)))
	}
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop: g.NextHop,
	}
	if g.rng.Float64() < 0.3 {
		attrs.MED, attrs.HasMED = uint32(g.rng.Intn(100)), true
	}
	if g.rng.Float64() < 0.25 {
		n := 1 + g.rng.Intn(3)
		for k := 0; k < n; k++ {
			attrs.Communities = append(attrs.Communities,
				bgp.NewCommunity(uint16(g.rng.Intn(65000)), uint16(g.rng.Intn(1000))))
		}
	}
	return RouteSpec{Prefix: prefixFor(i), Attrs: attrs}
}

// Routes generates n routes.
func (g *Generator) Routes(n int) []RouteSpec {
	out := make([]RouteSpec, n)
	for i := range out {
		out[i] = g.Route(i)
	}
	return out
}

// UpdateKind distinguishes stream events.
type UpdateKind int

// Stream event kinds.
const (
	KindAnnounce UpdateKind = iota
	KindWithdraw
)

// UpdateEvent is one element of an update stream.
type UpdateEvent struct {
	Kind  UpdateKind
	Route RouteSpec
}

// Stream produces n churn events over a working set of size setSize:
// initial announcements followed by a mix of re-announcements (with
// mutated paths, as real churn mostly is) and withdraw/re-announce
// pairs. Matches the Fig. 6b workload: a sustained stream of updates
// pushed through the full filter stack.
func (g *Generator) Stream(setSize, n int) []UpdateEvent {
	routes := g.Routes(setSize)
	out := make([]UpdateEvent, 0, n)
	for i := 0; i < n; i++ {
		idx := g.rng.Intn(setSize)
		r := routes[idx]
		if g.rng.Float64() < 0.1 {
			out = append(out, UpdateEvent{Kind: KindWithdraw, Route: r})
			continue
		}
		// Re-announce with a mutated path (prepend churn).
		mut := *r.Attrs
		mutPath := make([]bgp.ASPathSegment, len(r.Attrs.ASPath))
		copy(mutPath, r.Attrs.ASPath)
		mut.ASPath = mutPath
		mut.PrependAS(g.NeighborASN, g.rng.Intn(2)+1)
		out = append(out, UpdateEvent{Kind: KindAnnounce, Route: RouteSpec{Prefix: r.Prefix, Attrs: &mut}})
	}
	return out
}

// Update converts an event into a BGP UPDATE message.
func (e UpdateEvent) Update() *bgp.Update {
	if e.Kind == KindWithdraw {
		return &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: e.Route.Prefix}}}
	}
	return &bgp.Update{Attrs: e.Route.Attrs, NLRI: []bgp.NLRI{{Prefix: e.Route.Prefix}}}
}

// IXProfile describes one of the paper's exchanges (§4.2).
type IXProfile struct {
	Name         string
	Members      int
	Bilateral    int
	RouteServers int
	Transits     int
}

// PaperIXPs are the four exchanges with the §4.2 membership counts.
var PaperIXPs = []IXProfile{
	{Name: "AMS-IX", Members: 854, Bilateral: 106, RouteServers: 4, Transits: 2},
	{Name: "Seattle-IX", Members: 306, Bilateral: 63, RouteServers: 2, Transits: 2},
	{Name: "Phoenix-IX", Members: 140, Bilateral: 10, RouteServers: 2, Transits: 1},
	{Name: "IX.br/MG", Members: 129, Bilateral: 6, RouteServers: 2, Transits: 1},
}

// Scale shrinks a profile by factor (for tests and CI-speed benches),
// keeping at least one of everything.
func (p IXProfile) Scale(factor int) IXProfile {
	if factor <= 1 {
		return p
	}
	s := p
	s.Members = max(1, p.Members/factor)
	s.Bilateral = max(1, p.Bilateral/factor)
	return s
}
