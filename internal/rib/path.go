package rib

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"repro/internal/bgp"
)

// Path is one route for one prefix as learned from one peer, together
// with the metadata the decision process needs.
type Path struct {
	// Prefix is the destination.
	Prefix netip.Prefix
	// ID is the ADD-PATH identifier the route was received with (zero
	// when the session did not negotiate ADD-PATH).
	ID bgp.PathID
	// Attrs are the route's path attributes.
	Attrs *bgp.PathAttrs

	// Peer identifies the session the route was learned from (vBGP uses
	// the neighbor name).
	Peer string
	// From holds the constants of the session the route was learned
	// from, shared by every path of that session; nil when unknown.
	From *PeerInfo
	// EBGP records whether the route came over an external session.
	EBGP bool
	// IGPMetric is the cost to reach the BGP next hop.
	IGPMetric uint32
	// Seq orders route arrival: lower is older. Assigned by NextSeq.
	Seq uint64
	// Stale marks a path retained across a graceful restart (RFC 4724):
	// the session that taught it died, but the peer negotiated graceful
	// restart, so the path stays usable until re-advertisement replaces
	// it or SweepStale removes it. Re-adding the same (Peer, ID)
	// replaces the stale copy, clearing the mark.
	Stale bool
	// Damped marks a path suppressed by RFC 2439 flap damping: it stays
	// in the adj-RIB-in (so it can be reused when the penalty decays
	// below the reuse threshold) but must not be exported. The guard
	// layer owns the penalty state; the flag is bookkeeping for
	// visibility and export filtering.
	Damped bool
}

// PeerInfo is what the decision process knows of the session a path
// was learned from. One value is shared by all of that session's paths
// and is never modified: a session whose router ID changes gets a new
// one.
type PeerInfo struct {
	// Addr is the peer's transport address, the final decision
	// tiebreaker.
	Addr netip.Addr
	// RouterID is the peer's BGP identifier.
	RouterID netip.Addr
}

var seqCounter atomic.Uint64

// NextSeq returns a monotonically increasing sequence number used to
// implement the "prefer oldest" tiebreak.
func NextSeq() uint64 { return seqCounter.Add(1) }

// LocalPref returns the path's LOCAL_PREF, applying the conventional
// default of 100 when the attribute is absent.
func (p *Path) LocalPref() uint32 {
	if p.Attrs != nil && p.Attrs.HasLocalPref {
		return p.Attrs.LocalPref
	}
	return 100
}

// MED returns the path's MULTI_EXIT_DISC, defaulting to 0 when absent.
func (p *Path) MED() uint32 {
	if p.Attrs != nil && p.Attrs.HasMED {
		return p.Attrs.MED
	}
	return 0
}

// peer returns what is known of the path's session, the zero PeerInfo
// when nothing is.
func (p *Path) peer() PeerInfo {
	if p.From == nil {
		return PeerInfo{}
	}
	return *p.From
}

// NextHop returns the protocol next hop: the IPv4 NEXT_HOP or the
// MP_REACH next hop for IPv6 routes.
func (p *Path) NextHop() netip.Addr {
	if p.Attrs == nil {
		return netip.Addr{}
	}
	if p.Prefix.Addr().Is6() {
		return p.Attrs.MPNextHop
	}
	return p.Attrs.NextHop
}

// String formats the path for logs.
func (p *Path) String() string {
	return fmt.Sprintf("%s via %s peer=%s %s", p.Prefix, p.NextHop(), p.Peer, p.Attrs)
}

// Best implements the RFC 4271 §9.1.2.2 decision process (with the
// conventional vendor extensions) over a set of paths for the same
// prefix. It returns nil for an empty slice. Order of evaluation:
//
//  1. highest LOCAL_PREF
//  2. shortest AS path
//  3. lowest ORIGIN (IGP < EGP < INCOMPLETE)
//  4. lowest MED, compared only between routes from the same
//     neighboring AS
//  5. eBGP preferred over iBGP
//  6. lowest IGP metric to the next hop
//  7. oldest route (lowest Seq)
//  8. lowest peer router ID
//  9. lowest peer address
func Best(paths []*Path) *Path {
	var best *Path
	for _, p := range paths {
		if p == nil {
			continue
		}
		if best == nil || better(p, best) {
			best = p
		}
	}
	return best
}

// better reports whether a beats b under the decision process.
func better(a, b *Path) bool {
	if la, lb := a.LocalPref(), b.LocalPref(); la != lb {
		return la > lb
	}
	if la, lb := a.Attrs.ASPathLen(), b.Attrs.ASPathLen(); la != lb {
		return la < lb
	}
	oa, ob := originRank(a), originRank(b)
	if oa != ob {
		return oa < ob
	}
	// MED comparison applies only between routes via the same
	// neighboring AS (RFC 4271 §9.1.2.2 c).
	if a.Attrs.FirstASN() == b.Attrs.FirstASN() {
		if ma, mb := a.MED(), b.MED(); ma != mb {
			return ma < mb
		}
	}
	if a.EBGP != b.EBGP {
		return a.EBGP
	}
	if a.IGPMetric != b.IGPMetric {
		return a.IGPMetric < b.IGPMetric
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	pa, pb := a.peer(), b.peer()
	if pa.RouterID != pb.RouterID {
		return pa.RouterID.Less(pb.RouterID)
	}
	return pa.Addr.Less(pb.Addr)
}

func originRank(p *Path) uint8 {
	if p.Attrs == nil || !p.Attrs.HasOrigin {
		return bgp.OriginIncomplete
	}
	return p.Attrs.Origin
}
