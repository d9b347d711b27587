// Package ixp models an Internet exchange point: a shared layer-2
// fabric, member networks drawn from a synthetic Internet topology,
// transparent route servers (RFC 7947) offering multilateral peering,
// and bilateral BGP sessions with a subset of members.
//
// Peering's richest PoPs live at IXPs — AMS-IX with 854 peer ASes (106
// bilateral, 4 route servers, 2 transits), Seattle-IX with 306 (63), and
// so on (paper §4.2, §6). This package reproduces those settings at
// configurable scale.
package ixp

import (
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"

	"repro/internal/bgp"
	"repro/internal/inet"
	"repro/internal/netsim"
)

// Member is one network present on the IXP fabric.
type Member struct {
	// ASN identifies the member in the topology.
	ASN uint32
	// Addr is the member's address on the peering LAN.
	Addr netip.Addr
	// Bilateral marks members that also hold a direct BGP session with
	// the platform (the "129 bilateral" of §4.2); all members are
	// reachable through the route servers.
	Bilateral bool
}

// IXP is one exchange.
type IXP struct {
	// Name is the exchange name, e.g. "AMS-IX".
	Name string
	// RouteServerASN is the ASN the route servers speak from.
	RouteServerASN uint32
	// Fabric is the shared peering LAN.
	Fabric *netsim.Segment

	topo *inet.Topology

	mu      sync.Mutex
	members map[uint32]*Member
	nextIP  uint32
	lan     netip.Prefix
}

// New creates an exchange whose peering LAN is lan (members get
// addresses allocated from it).
func New(name string, rsASN uint32, topo *inet.Topology, lan netip.Prefix) *IXP {
	return &IXP{
		Name:           name,
		RouteServerASN: rsASN,
		Fabric:         netsim.NewSegment(name + "-fabric"),
		topo:           topo,
		members:        make(map[uint32]*Member),
		lan:            lan.Masked(),
	}
}

// AddMember joins an AS to the exchange, allocating it a LAN address and
// attaching a host to the fabric so the address answers ARP.
func (x *IXP) AddMember(asn uint32, bilateral bool) (*Member, error) {
	if x.topo.AS(asn) == nil {
		return nil, fmt.Errorf("ixp: AS%d not in topology", asn)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if m, ok := x.members[asn]; ok {
		return m, nil
	}
	x.nextIP++
	raw := x.lan.Addr().As4()
	host := x.nextIP
	raw[2] += byte(host >> 8)
	raw[3] += byte(host)
	m := &Member{ASN: asn, Addr: netip.AddrFrom4(raw), Bilateral: bilateral}
	x.members[asn] = m

	h := netsim.NewHost(fmt.Sprintf("%s-as%d", x.Name, asn))
	mac := memberMAC(asn)
	h.AddInterface("ix0", mac, netip.PrefixFrom(m.Addr, x.lan.Bits()), x.Fabric)
	return m, nil
}

// memberMAC derives a member's fabric MAC from its ASN.
func memberMAC(asn uint32) (m [6]byte) {
	m[0], m[1] = 0x02, 0x1e
	m[2], m[3], m[4], m[5] = byte(asn>>24), byte(asn>>16), byte(asn>>8), byte(asn)
	return
}

// Members returns the exchange's members sorted by ASN.
func (x *IXP) Members() []*Member {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]*Member, 0, len(x.members))
	for _, m := range x.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// MemberCounts returns (total, bilateral) member counts — the §4.2
// statistics.
func (x *IXP) MemberCounts() (total, bilateral int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, m := range x.members {
		total++
		if m.Bilateral {
			bilateral++
		}
	}
	return total, bilateral
}

// RouteServer is one transparent route server: it relays every member's
// routes over a single session without inserting its own ASN in the path
// and without altering the next hop, which remains the member's fabric
// address (RFC 7947) — exactly the property that lets vBGP build one
// forwarding table per member behind a single session.
type RouteServer struct {
	// Name distinguishes the servers ("rs1".."rs4" at AMS-IX).
	Name string

	x    *IXP
	sess *bgp.Session
	// MaxRoutesPerMember bounds announcements (scale knob; 0 = all).
	MaxRoutesPerMember int
}

// ConnectRouteServer starts a route-server session toward the platform
// over conn and returns the server. Routes of every current member are
// announced on establishment.
func (x *IXP) ConnectRouteServer(name string, platformASN uint32, conn net.Conn, maxRoutesPerMember int) *RouteServer {
	rs := &RouteServer{Name: name, x: x, MaxRoutesPerMember: maxRoutesPerMember}
	rs.sess = bgp.NewSession(conn, bgp.Config{
		LocalASN:  x.RouteServerASN,
		RemoteASN: platformASN,
		LocalID:   netip.MustParseAddr("192.0.2.99"),
		Families:  []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		// Per-member path IDs let one session carry every member's route
		// for the same prefix.
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSend,
			bgp.IPv6Unicast: bgp.AddPathSend,
		},
		OnEstablished: func() { rs.announceAll() },
		OnUpdate:      func(u *bgp.Update) { rs.handleUpdate(u) },
	})
	go rs.sess.Run()
	return rs
}

// Session exposes the route server's BGP session.
func (rs *RouteServer) Session() *bgp.Session { return rs.sess }

// Close shuts the session down.
func (rs *RouteServer) Close() { rs.sess.Close() }

func (rs *RouteServer) announceAll() {
	for _, m := range rs.x.Members() {
		routes := rs.x.topo.RoutesAt(m.ASN)
		// When capped, announce the member's own originations first so a
		// scaled-down exchange still carries every member's identity.
		sort.SliceStable(routes, func(i, j int) bool {
			return routes[i].LearnedOver == inet.RelOrigin && routes[j].LearnedOver != inet.RelOrigin
		})
		for i, rt := range routes {
			if rs.MaxRoutesPerMember > 0 && i >= rs.MaxRoutesPerMember {
				break
			}
			attrs := &bgp.PathAttrs{
				Origin: bgp.OriginIGP, HasOrigin: true,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: rt.Path}},
				NextHop: m.Addr, // transparent: next hop is the member
			}
			u := &bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: rt.Prefix, ID: bgp.PathID(m.ASN)}}}
			if err := rs.sess.Send(u); err != nil {
				return
			}
		}
	}
}

// handleUpdate relays a platform announcement into every member AS: the
// route server redistributes to all members, each of which classifies
// the platform as a peer.
func (rs *RouteServer) handleUpdate(u *bgp.Update) {
	for _, m := range rs.x.Members() {
		for _, w := range u.Withdrawn {
			_ = rs.x.topo.RemoveExternal(m.ASN, w.Prefix)
		}
		if u.Attrs == nil {
			continue
		}
		for _, nlri := range u.NLRI {
			_ = rs.x.topo.InjectExternal(m.ASN, nlri.Prefix, u.Attrs.ASPathFlat(), inet.RelPeer)
		}
	}
}

// ConnectBilateral starts a direct session between member asn and the
// platform over conn (a bilateral peering, inet.RelPeer). maxRoutes
// bounds the member's announced table (0 = all).
func (x *IXP) ConnectBilateral(asn uint32, platformASN uint32, maxRoutes int, conn net.Conn) (*inet.Speaker, error) {
	x.mu.Lock()
	m := x.members[asn]
	x.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("ixp: AS%d is not a member of %s", asn, x.Name)
	}
	return inet.NewSpeaker(x.topo, asn, m.Addr, inet.RelPeer, platformASN, maxRoutes, conn), nil
}
