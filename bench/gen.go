package main

import (
	"math/rand"
	"net/netip"

	"repro/internal/bgp"
)

// Inputs are generated here from -seed and pre-built before any timed
// window; the program under test sees only UPDATEs, frames and HTTP
// bodies.

// tablePrefix is the i-th /24 of the neighbor tables: 1.0.0.0/24 upward.
// Every neighbor announces the same prefixes with its own attributes,
// the way two transit providers both carry the full table.
func tablePrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + i>>16), byte(i >> 8), byte(i), 0}), 24)
}

// tableIndex inverts tablePrefix; ok is false for prefixes outside the
// table space (the sentinels).
func tableIndex(p netip.Prefix, routes int) (int, bool) {
	if p.Bits() != 24 || !p.Addr().Is4() {
		return 0, false
	}
	a := p.Addr().As4()
	i := int(a[0]-1)<<16 | int(a[1])<<8 | int(a[2])
	if a[0] == 0 || i >= routes || a[3] != 0 {
		return 0, false
	}
	return i, true
}

// sentinelPrefix is the per-round fence: sent last on a neighbor session,
// its arrival at an experiment proves (sessions are FIFO) that everything
// sent before it on that session was delivered first.
var sentinelPrefix = netip.MustParsePrefix("198.51.100.0/24")

// attrsHash fingerprints what an experiment must see of a route: the AS
// path and the communities. Zero is reserved for "absent".
func attrsHash(a *bgp.PathAttrs) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, seg := range a.ASPath {
		for _, asn := range seg.ASNs {
			h = (h ^ uint64(asn)) * prime
		}
	}
	h = (h ^ 0xff) * prime
	for _, c := range a.Communities {
		h = (h ^ uint64(c)) * prime
	}
	return h | 1
}

// routeGroup is one attribute set and the NLRI that share it: a single
// prefix in the churn shape, several in the table-transfer shape. The
// generator owns the attributes and mutates them in place between
// rounds; bgp.Session.Send encodes synchronously, so nothing else holds
// them.
type routeGroup struct {
	attrs   *bgp.PathAttrs
	nlri    []bgp.NLRI
	first   int // table index of nlri[0]
	present bool
	longer  bool // AS-path variant currently announced
}

// churnMix is the share of events that only change communities and the
// share that withdraw; the rest re-announce with a mutated AS path.
// Krenc et al. attribute a large part of real update volume to
// community-only changes, which is why the mix carries them.
type churnMix struct{ community, withdraw float64 }

// updateGen produces one neighbor's table and its churn, and tracks what
// every experiment must hold for that neighbor after each event.
type updateGen struct {
	rng      *rand.Rand
	groups   []routeGroup
	order    []int // seeded permutation the churn walks
	cursor   int
	mix      churnMix
	expected []uint64 // per table index: attrsHash, or 0 when withdrawn
}

func newUpdateGen(seed int64, neighborASN uint32, nextHop netip.Addr, routes, perGroup int, mix churnMix) *updateGen {
	rng := rand.New(rand.NewSource(seed))
	g := &updateGen{rng: rng, mix: mix, expected: make([]uint64, routes)}
	g.groups = make([]routeGroup, routes/perGroup)
	nlri := make([]bgp.NLRI, routes)
	for i := range nlri {
		nlri[i] = bgp.NLRI{Prefix: tablePrefix(i)}
	}
	for i := range g.groups {
		hops := 2 + rng.Intn(4)
		// One spare slot: the "longer" variant repeats the origin, the
		// way prepending does, without allocating.
		asns := make([]uint32, 1, hops+2)
		asns[0] = neighborASN
		for j := 0; j < hops; j++ {
			// Below the platform ASN, so loop prevention never fires.
			asns = append(asns, uint32(1000+rng.Intn(40000)))
		}
		attrs := &bgp.PathAttrs{
			Origin: bgp.OriginIGP, HasOrigin: true,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
			NextHop: nextHop,
			Communities: []bgp.Community{
				bgp.NewCommunity(uint16(neighborASN), uint16(rng.Intn(1000))),
			},
		}
		if rng.Float64() < 0.3 {
			attrs.MED, attrs.HasMED = uint32(rng.Intn(100)), true
		}
		g.groups[i] = routeGroup{attrs: attrs, nlri: nlri[i*perGroup : (i+1)*perGroup], first: i * perGroup}
	}
	g.order = rng.Perm(len(g.groups))
	return g
}

// announce fills u with group gi's current attributes and records the
// expectation.
func (g *updateGen) announce(gi int, u *bgp.Update) {
	grp := &g.groups[gi]
	grp.present = true
	*u = bgp.Update{Attrs: grp.attrs, NLRI: grp.nlri}
	h := attrsHash(grp.attrs)
	for k := range grp.nlri {
		g.expected[grp.first+k] = h
	}
}

// next fills u with the next churn event and returns how many routes it
// carries. Every event is an effective change: an absent group is
// re-announced, a present one changes path, changes communities, or is
// withdrawn.
func (g *updateGen) next(u *bgp.Update) int {
	gi := g.order[g.cursor]
	g.cursor = (g.cursor + 1) % len(g.order)
	grp := &g.groups[gi]
	roll := g.rng.Float64()
	switch {
	case grp.present && roll < g.mix.withdraw:
		grp.present = false
		*u = bgp.Update{Withdrawn: grp.nlri}
		for k := range grp.nlri {
			g.expected[grp.first+k] = 0
		}
		return len(grp.nlri)
	case grp.present && roll < g.mix.withdraw+g.mix.community:
		grp.attrs.Communities[0] ^= 1 << 9
	case grp.present:
		asns := grp.attrs.ASPath[0].ASNs
		if grp.longer {
			asns = asns[:len(asns)-1]
		} else {
			asns = append(asns, asns[len(asns)-1])
		}
		grp.attrs.ASPath[0].ASNs = asns
		grp.longer = !grp.longer
	}
	g.announce(gi, u)
	return len(grp.nlri)
}
