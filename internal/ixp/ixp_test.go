package ixp

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/pipe"
)

const platformASN = 47065

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func smallInternet(t *testing.T) *inet.Topology {
	t.Helper()
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)
	if err := inet.Validate(topo); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestMembershipAndAddressing(t *testing.T) {
	topo := smallInternet(t)
	x := New("TEST-IX", 64700, topo, pfx("80.249.208.0/21"))
	m1, err := x.AddMember(10000, true)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := x.AddMember(10001, false)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Addr == m2.Addr {
		t.Error("members share a LAN address")
	}
	if !pfx("80.249.208.0/21").Contains(m1.Addr) {
		t.Errorf("member address %s outside LAN", m1.Addr)
	}
	total, bilateral := x.MemberCounts()
	if total != 2 || bilateral != 1 {
		t.Errorf("counts = %d/%d", total, bilateral)
	}
	// Duplicate membership is idempotent.
	again, _ := x.AddMember(10000, true)
	if again != m1 {
		t.Error("duplicate AddMember created a new member")
	}
	if _, err := x.AddMember(999999, false); err == nil {
		t.Error("unknown AS admitted")
	}
}

func TestRouteServerAnnouncesMemberRoutes(t *testing.T) {
	topo := smallInternet(t)
	x := New("TEST-IX", 64700, topo, pfx("80.249.208.0/21"))
	m1, _ := x.AddMember(10000, false)
	m2, _ := x.AddMember(10001, false)

	router := core.NewRouter(core.Config{
		Name: "pop", ASN: platformASN, RouterID: netip.MustParseAddr("198.51.100.1"),
	})
	router.AddInterface("ix0", "neighbor", pfx("80.249.208.254/21"), x.Fabric)

	cr, cx := pipe.New()
	nbr, err := router.AddNeighbor(core.NeighborConfig{
		Name: "rs1", ID: 1, ASN: 64700, Addr: netip.MustParseAddr("80.249.208.250"),
		Interface: "ix0", Conn: cr, RouteServer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := x.ConnectRouteServer("rs1", platformASN, cx, 5)
	defer rs.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && nbr.Table.PathCount() < 10 {
		time.Sleep(5 * time.Millisecond)
	}
	// 2 members x 5 routes each.
	if got := nbr.Table.PathCount(); got != 10 {
		t.Fatalf("routes via route server = %d, want 10", got)
	}
	// Next hops are the members' fabric addresses (transparent RS), and
	// the RS ASN never appears in paths.
	rt := router.Neighbor("rs1").Table.Lookup(inet.PrefixForASN(10000).Addr())
	if rt == nil {
		t.Fatal("member 10000's prefix not in RS table")
	}
	for _, asn := range rt.Attrs.ASPathFlat() {
		if asn == 64700 {
			t.Error("route server ASN leaked into the path")
		}
	}
	_ = m1
	_ = m2
}

func TestRouteServerRelaysPlatformAnnouncements(t *testing.T) {
	topo := smallInternet(t)
	x := New("TEST-IX", 64700, topo, pfx("80.249.208.0/21"))
	x.AddMember(10000, false)
	x.AddMember(10001, false)

	router := core.NewRouter(core.Config{
		Name: "pop", ASN: platformASN, RouterID: netip.MustParseAddr("198.51.100.1"),
	})
	router.AddInterface("ix0", "neighbor", pfx("80.249.208.254/21"), x.Fabric)
	cr, cx := pipe.New()
	if _, err := router.AddNeighbor(core.NeighborConfig{
		Name: "rs1", ID: 1, ASN: 64700, Addr: netip.MustParseAddr("80.249.208.250"),
		Interface: "ix0", Conn: cr, RouteServer: true,
	}); err != nil {
		t.Fatal(err)
	}
	rs := x.ConnectRouteServer("rs1", platformASN, cx, 1)
	defer rs.Close()

	// An experiment announces through the platform; the RS relays to all
	// members, whose customer cones learn the prefix.
	er, ee := pipe.New()
	if _, err := router.ConnectExperiment("X1", 61574, er); err != nil {
		t.Fatal(err)
	}
	exp := bgp.NewSession(ee, bgp.Config{
		LocalASN: 61574, RemoteASN: platformASN,
		LocalID: netip.MustParseAddr("100.65.0.1"),
	})
	go exp.Run()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && exp.State() != bgp.StateEstablished {
		time.Sleep(5 * time.Millisecond)
	}
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{61574}}},
		NextHop: netip.MustParseAddr("100.65.0.1"),
	}
	// No policy engine configured: announcement passes through.
	if err := exp.Send(&bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: pfx("184.164.224.0/24")}}}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if topo.Reachable(10000, pfx("184.164.224.0/24")) && topo.Reachable(10001, pfx("184.164.224.0/24")) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !topo.Reachable(10000, pfx("184.164.224.0/24")) {
		t.Fatal("member did not learn the platform announcement via RS")
	}
	rt := topo.RouteAt(10000, pfx("184.164.224.0/24"))
	want := []uint32{10000, platformASN, 61574}
	if len(rt.Path) != 3 || rt.Path[0] != want[0] || rt.Path[1] != want[1] || rt.Path[2] != want[2] {
		t.Errorf("member path %v, want %v", rt.Path, want)
	}
}

func TestBilateralSession(t *testing.T) {
	topo := smallInternet(t)
	x := New("TEST-IX", 64700, topo, pfx("80.249.208.0/21"))
	m, _ := x.AddMember(10000, true)

	router := core.NewRouter(core.Config{
		Name: "pop", ASN: platformASN, RouterID: netip.MustParseAddr("198.51.100.1"),
	})
	router.AddInterface("ix0", "neighbor", pfx("80.249.208.254/21"), x.Fabric)
	cr, cx := pipe.New()
	nbr, err := router.AddNeighbor(core.NeighborConfig{
		Name: "as10000", ID: 5, ASN: 10000, Addr: m.Addr, Interface: "ix0", Conn: cr,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := x.ConnectBilateral(10000, platformASN, 0, cx)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && nbr.Table.PathCount() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if nbr.Table.PathCount() == 0 {
		t.Fatal("no routes over bilateral session")
	}
	// First AS of each path must be the member itself (no RS in between).
	rt := router.Neighbor("as10000").Table.Lookup(inet.PrefixForASN(100).Addr())
	if rt == nil {
		t.Fatal("tier-1 prefix missing from bilateral table")
	}
	if rt.Attrs.FirstASN() != 10000 {
		t.Errorf("first ASN %d, want 10000", rt.Attrs.FirstASN())
	}
	if _, err := x.ConnectBilateral(424242, platformASN, 0, cx); err == nil {
		t.Error("bilateral with non-member accepted")
	}
}

func TestRouteServerDataPlaneForwardsToMember(t *testing.T) {
	// Transparent RS semantics end to end: a frame steered at the RS
	// neighbor's MAC must be forwarded to the MEMBER whose route wins,
	// using the member's fabric address as next hop (RFC 7947), not the
	// route server's.
	topo := smallInternet(t)
	x := New("TEST-IX", 64700, topo, pfx("80.249.208.0/21"))
	m, _ := x.AddMember(10000, false)

	router := core.NewRouter(core.Config{
		Name: "pop", ASN: platformASN, RouterID: netip.MustParseAddr("198.51.100.1"),
	})
	router.AddInterface("ix0", "neighbor", pfx("80.249.215.254/21"), x.Fabric)
	expLAN := netsim.NewSegment("exp-lan")
	router.AddInterface("exp0", "experiment", pfx("100.65.0.254/24"), expLAN)

	cr, cx := pipe.New()
	nbr, err := router.AddNeighbor(core.NeighborConfig{
		Name: "rs1", ID: 1, ASN: 64700, Addr: netip.MustParseAddr("80.249.215.250"),
		Interface: "ix0", Conn: cr, RouteServer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := x.ConnectRouteServer("rs1", platformASN, cx, 3)
	defer rs.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && nbr.Table.PathCount() < 3 {
		time.Sleep(5 * time.Millisecond)
	}

	// Count IPv4 frames addressed to the member's fabric MAC.
	memberIfc := netsim.NewInterface("sniff", ethernet.MAC{0x02, 0xee, 0, 0, 0, 1})
	memberIfc.AddMAC(memberMAC(10000))
	memberIfc.Attach(x.Fabric)
	var rx atomic.Uint64
	memberIfc.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
		if fr.Type == ethernet.TypeIPv4 {
			rx.Add(1)
		}
	})

	// An experiment-side interface steers a packet at the RS table.
	tx := netsim.NewInterface("tx", ethernet.MAC{0x0a, 0, 0, 0, 0, 1})
	tx.Attach(expLAN)
	dst := inet.PrefixForASN(10000).Addr().Next()
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: netip.MustParseAddr("184.164.224.1"), Dst: dst}
	tx.Send(&ethernet.Frame{Dst: nbr.LocalMAC, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})

	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && rx.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if rx.Load() != 1 {
		t.Fatalf("member received %d frames; next hop should be member %s", rx.Load(), m.Addr)
	}
}
