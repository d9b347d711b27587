package core

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/policy"
)

// fig5 builds the paper's Figure 5 scenario: two vBGP routers E1 and E2
// joined by a backbone segment, E1 with neighbor N1 and E2 with neighbor
// N2, an experiment X1 attached at E1.
type fig5 struct {
	e1, e2 *Router
	bb     *netsim.Segment
	expLAN *netsim.Segment
	n2LAN  *netsim.Segment
	n1, n2 *testPeer
	n2Host *netsim.Host
	n2Ifc  *netsim.Interface
	engine *policy.Engine
}

func newFig5(t *testing.T) *fig5 { return newFig5With(t, platformASN) }

// newFig5With is newFig5 for a platform with the given ASN.
func newFig5With(t *testing.T, asn uint32) *fig5 {
	t.Helper()
	f := &fig5{
		bb:     netsim.NewSegment("backbone"),
		expLAN: netsim.NewSegment("exp-lan"),
		n2LAN:  netsim.NewSegment("n2-lan"),
		engine: policy.NewEngine(asn),
	}
	f.engine.Register(&policy.Experiment{
		Name:     "X1",
		Prefixes: []netip.Prefix{pfx("10.1.0.0/24")},
		ASNs:     []uint32{expASN},
	})
	shared := NewPool(DefaultGlobalPool)

	f.e1 = NewRouter(Config{Name: "e1", ASN: asn, RouterID: ip("198.51.100.1"),
		GlobalPool: shared, Enforcer: f.engine,
		LocalPool: pfx("127.65.0.0/16")})
	f.e2 = NewRouter(Config{Name: "e2", ASN: asn, RouterID: ip("198.51.100.2"),
		GlobalPool: shared, Enforcer: f.engine,
		LocalPool: pfx("127.66.0.0/16")})

	n1LAN := netsim.NewSegment("n1-lan")
	f.e1.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), n1LAN)
	f.e1.AddInterface("exp0", "experiment", pfx("100.65.0.254/24"), f.expLAN)
	f.e1.AddInterface("bb0", "backbone", pfx("100.127.0.1/24"), f.bb)

	f.e2.AddInterface("nbr0", "neighbor", pfx("198.18.0.254/24"), f.n2LAN)
	f.e2.AddInterface("exp0", "experiment", pfx("100.66.0.254/24"), netsim.NewSegment("e2-exp"))
	f.e2.AddInterface("bb0", "backbone", pfx("100.127.0.2/24"), f.bb)

	// Neighbor N1 at E1.
	n1Host := netsim.NewHost("N1")
	n1Host.AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 0, 0x11}, pfx("192.0.2.1/24"), n1LAN)
	c1r, c1n := pipe.New()
	if _, err := f.e1.AddNeighbor(NeighborConfig{
		Name: "N1", ID: 1, ASN: n1ASN, Addr: ip("192.0.2.1"), Interface: "nbr0", Conn: c1r,
	}); err != nil {
		t.Fatal(err)
	}
	f.n1 = newTestPeer(t, c1n, n1ASN, asn, "192.0.2.1", false)

	// Neighbor N2 at E2.
	f.n2Host = netsim.NewHost("N2")
	f.n2Ifc = f.n2Host.AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 0, 0x22}, pfx("198.18.0.1/24"), f.n2LAN)
	c2r, c2n := pipe.New()
	if _, err := f.e2.AddNeighbor(NeighborConfig{
		Name: "N2", ID: 2, ASN: n2ASN, Addr: ip("198.18.0.1"), Interface: "nbr0", Conn: c2r,
	}); err != nil {
		t.Fatal(err)
	}
	f.n2 = newTestPeer(t, c2n, n2ASN, asn, "198.18.0.1", false)

	f.n1.waitEstablished()
	f.n2.waitEstablished()

	// Backbone mesh session E1 <-> E2.
	m1, m2 := pipe.New()
	if err := f.e1.AddBackbonePeer("e2", ip("100.127.0.2"), m1); err != nil {
		t.Fatal(err)
	}
	if err := f.e2.AddBackbonePeer("e1", ip("100.127.0.1"), m2); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFigure5BackboneControlPlane(t *testing.T) {
	f := newFig5(t)
	// N2 announces a prefix at E2.
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "198.18.0.1")

	// E1 materializes a remote neighbor for N2 and an experiment at E1
	// sees the route with a next hop from E1's local pool.
	waitFor(t, 5*time.Second, "remote neighbor at e1", func() bool {
		for _, n := range f.e1.Neighbors() {
			if n.Remote && n.Table.PathCount() == 1 {
				return true
			}
		}
		return false
	})

	cr, ce := pipe.New()
	if _, err := f.e1.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	x1 := newTestPeer(t, ce, expASN, platformASN, "100.65.0.1", true)
	x1.waitEstablished()

	waitFor(t, 5*time.Second, "remote route at experiment", func() bool {
		for nlri, nh := range x1.routes() {
			if nlri.Prefix == pfx("192.168.0.0/24") && nlri.ID == 2 {
				return pfx("127.65.0.0/16").Contains(nh)
			}
		}
		return false
	})
}

func TestFigure5BackboneDataPlane(t *testing.T) {
	f := newFig5(t)
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "198.18.0.1")
	var remote *Neighbor
	waitFor(t, 5*time.Second, "remote neighbor table at e1", func() bool {
		for _, n := range f.e1.Neighbors() {
			if n.Remote && n.Table.PathCount() == 1 {
				remote = n
				return true
			}
		}
		return false
	})

	// X1 on E1's experiment LAN.
	x1 := netsim.NewHost("X1")
	x1ifc := x1.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)

	// Count frames at N2.
	var mu sync.Mutex
	var n2Frames int
	f.n2Ifc.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
		if fr.Type == ethernet.TypeIPv4 {
			mu.Lock()
			n2Frames++
			mu.Unlock()
		}
	})

	// Fig. 5 walk-through: X1 ARPs E1 for the local next hop of the
	// REMOTE neighbor N2, then sends the packet at the answered MAC.
	mac, err := x1.Resolve(x1ifc, remote.LocalIP, time.Second)
	if err != nil {
		t.Fatalf("ARP for remote next hop: %v", err)
	}
	if mac != MACForGlobalIP(remote.GlobalIP) {
		t.Fatalf("ARP answered %s, want derived MAC %s", mac, MACForGlobalIP(remote.GlobalIP))
	}
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: ip("10.1.0.1"), Dst: ip("192.168.0.1"), Payload: []byte("across-the-backbone")}
	x1ifc.Send(&ethernet.Frame{Dst: mac, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})

	waitFor(t, 5*time.Second, "frame delivered to N2 via backbone", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return n2Frames == 1
	})
	if f.e1.Forwarded.Load() == 0 || f.e2.Forwarded.Load() == 0 {
		t.Errorf("forward counters: e1=%d e2=%d", f.e1.Forwarded.Load(), f.e2.Forwarded.Load())
	}
}

func TestBackboneExperimentAnnouncementAtRemotePoP(t *testing.T) {
	// §4.4: an experiment at E1 can direct announcements to neighbors at
	// E2 using the same community mechanism.
	f := newFig5(t)
	cr, ce := pipe.New()
	if _, err := f.e1.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	x1 := newTestPeer(t, ce, expASN, platformASN, "100.65.0.1", true)
	x1.waitEstablished()

	// Announce to neighbor 2 (N2, at E2) only.
	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1", AnnounceTo(platformASN, 2))

	waitFor(t, 5*time.Second, "announcement at N2 via backbone", func() bool {
		_, ok := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	time.Sleep(50 * time.Millisecond)
	if _, leaked := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]; leaked {
		t.Fatal("announcement leaked to N1 at the local PoP")
	}
	// Exported path: platform ASN prepended exactly once despite the
	// mesh hop.
	u := f.n2.lastUpdate()
	flat := u.Attrs.ASPathFlat()
	if len(flat) != 2 || flat[0] != platformASN || flat[1] != expASN {
		t.Errorf("AS path via backbone %v, want [%d %d]", flat, platformASN, expASN)
	}
}

// TestLargeCommunityControlsCrossBackbone: on a platform whose ASN needs
// four bytes, where only the large-community form of the controls can
// name it, an experiment's blacklist holds at the remote PoP, and
// neither PoP's experiment-LAN prefix reaches the other PoP's neighbors.
func TestLargeCommunityControlsCrossBackbone(t *testing.T) {
	const asn = 4200000001
	f := newFig5With(t, asn)
	cr, ce := pipe.New()
	if _, err := f.e1.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	x1 := newTestPeer(t, ce, expASN, asn, "100.65.0.1", true)
	x1.waitEstablished()
	u := &bgp.Update{
		Attrs: &bgp.PathAttrs{
			Origin: bgp.OriginIGP, HasOrigin: true,
			ASPath:           []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN}}},
			NextHop:          ip("100.65.0.1"),
			LargeCommunities: []bgp.LargeCommunity{LargeNoExportTo(asn, 2)},
		},
		NLRI: []bgp.NLRI{{Prefix: pfx("10.1.0.0/24")}},
	}
	if err := x1.sess.Send(u); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "announcement at N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	relayed := func(r *Router, prefix string) func() bool {
		return func() bool { return len(r.ExperimentRoutes().Paths(pfx(prefix))) > 0 }
	}
	waitFor(t, 5*time.Second, "the announcement relayed to E2", relayed(f.e2, "10.1.0.0/24"))
	waitFor(t, 5*time.Second, "E1's experiment LAN relayed to E2", relayed(f.e2, "100.65.0.0/24"))
	waitFor(t, 5*time.Second, "E2's experiment LAN relayed to E1", relayed(f.e1, "100.66.0.0/24"))
	time.Sleep(50 * time.Millisecond)
	for nlri := range f.n2.routes() {
		t.Errorf("N2 at E2 holds %s", nlri.Prefix)
	}
	if _, leaked := f.n1.routes()[bgp.NLRI{Prefix: pfx("100.66.0.0/24")}]; leaked {
		t.Error("E2's experiment LAN leaked to N1 at E1")
	}
}

func TestBackboneInboundTrafficReachesExperiment(t *testing.T) {
	f := newFig5(t)
	cr, ce := pipe.New()
	if _, err := f.e1.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	x1sess := newTestPeer(t, ce, expASN, platformASN, "100.65.0.1", true)
	x1sess.waitEstablished()

	x1 := netsim.NewHost("X1")
	x1ifc := x1.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)
	f.e1.SetExperimentTunnelIP("X1", ip("100.65.0.1"))
	var mu sync.Mutex
	var rx int
	var rxSrc ethernet.MAC
	x1ifc.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
		if fr.Type == ethernet.TypeIPv4 {
			mu.Lock()
			rx++
			rxSrc = fr.Src
			mu.Unlock()
		}
	})

	x1sess.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "announcement at N2", func() bool {
		_, ok := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})

	// N2 sends a packet toward the experiment prefix: N2 -> E2 ->
	// backbone -> E1 -> X1.
	rtrMAC, err := f.n2Host.Resolve(f.n2Ifc, ip("198.18.0.254"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: ip("192.168.0.9"), Dst: ip("10.1.0.7"), Payload: []byte("inbound-via-bb")}
	f.n2Ifc.Send(&ethernet.Frame{Dst: rtrMAC, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})

	waitFor(t, 5*time.Second, "inbound frame at X1", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return rx == 1
	})
	// Attribution survives the backbone: the source MAC is the derived
	// per-neighbor MAC of N2, identical at both PoPs.
	n2AtE2 := f.e2.Neighbor("N2")
	mu.Lock()
	defer mu.Unlock()
	if rxSrc != n2AtE2.LocalMAC {
		t.Errorf("source MAC %s, want N2's derived MAC %s", rxSrc, n2AtE2.LocalMAC)
	}
}

func TestMaintainDefaultTable(t *testing.T) {
	// The Fig. 6a ablation: a router additionally keeping its own
	// best-path table (needed only when it serves production traffic).
	engine := policy.NewEngine(platformASN)
	r := NewRouter(Config{Name: "e1", ASN: platformASN, RouterID: ip("198.51.100.1"),
		Enforcer: engine, MaintainDefaultTable: true})
	nbrLAN := netsim.NewSegment("nbr")
	r.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), nbrLAN)

	add := func(name string, id uint32, asn uint32, addr string) *testPeer {
		cr, cn := pipe.New()
		if _, err := r.AddNeighbor(NeighborConfig{Name: name, ID: id, ASN: asn,
			Addr: ip(addr), Interface: "nbr0", Conn: cr}); err != nil {
			t.Fatal(err)
		}
		p := newTestPeer(t, cn, asn, platformASN, addr, false)
		p.waitEstablished()
		return p
	}
	p1 := add("N1", 1, n1ASN, "192.0.2.1")
	p2 := add("N2", 2, n2ASN, "192.0.2.2")

	p1.announce("192.168.0.0/24", []uint32{n1ASN, 64999}, "192.0.2.1") // longer path
	p2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")        // shorter path
	waitFor(t, 5*time.Second, "default table has both", func() bool {
		return r.DefaultTable() != nil && r.DefaultTable().PathCount() == 2
	})
	best := r.DefaultTable().Best(pfx("192.168.0.0/24"))
	if best.Peer != "N2" {
		t.Errorf("default-table best via %s, want N2 (shorter path)", best.Peer)
	}
	// Withdrawal updates the default table too.
	p2.withdraw("192.168.0.0/24")
	waitFor(t, 5*time.Second, "default table best shifts", func() bool {
		b := r.DefaultTable().Best(pfx("192.168.0.0/24"))
		return b != nil && b.Peer == "N1"
	})
}

func TestMeshPeerDownWithdrawsRemoteRoutes(t *testing.T) {
	f := newFig5(t)
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "198.18.0.1")
	waitFor(t, 5*time.Second, "remote route at e1", func() bool {
		for _, n := range f.e1.Neighbors() {
			if n.Remote && n.Table.PathCount() == 1 {
				return true
			}
		}
		return false
	})
	cr, ce := pipe.New()
	if _, err := f.e1.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	x1 := newTestPeer(t, ce, expASN, platformASN, "100.65.0.1", true)
	x1.waitEstablished()
	waitFor(t, 5*time.Second, "remote route at experiment", func() bool { return len(x1.routes()) == 1 })

	// The backbone session dies: remote-neighbor routes must be
	// withdrawn from experiments.
	f.e1.topo.Load().meshPeers["e2"].session.Close()
	waitFor(t, 5*time.Second, "remote route withdrawn", func() bool { return len(x1.routes()) == 0 })
}

func TestBackboneWithdrawPropagates(t *testing.T) {
	f := newFig5(t)
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "198.18.0.1")
	waitFor(t, 5*time.Second, "remote route at e1", func() bool {
		for _, n := range f.e1.Neighbors() {
			if n.Remote && n.Table.PathCount() == 1 {
				return true
			}
		}
		return false
	})
	cr, ce := pipe.New()
	if _, err := f.e1.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	x1 := newTestPeer(t, ce, expASN, platformASN, "100.65.0.1", true)
	x1.waitEstablished()
	waitFor(t, 5*time.Second, "route at experiment", func() bool { return len(x1.routes()) == 1 })

	// N2 withdraws at e2: the withdrawal crosses the mesh and reaches
	// the experiment at e1.
	f.n2.withdraw("192.168.0.0/24")
	waitFor(t, 5*time.Second, "withdraw crosses the backbone", func() bool { return len(x1.routes()) == 0 })
	for _, n := range f.e1.Neighbors() {
		if n.Remote && n.Table.PathCount() != 0 {
			t.Fatal("remote table retains withdrawn route")
		}
	}
}

func TestBackboneIPv6RouteCrossesMesh(t *testing.T) {
	f := newFig5(t)
	f.n2.announceV6("2001:db8:2000::/36", []uint32{n2ASN}, "2001:db8::2")
	cr, ce := pipe.New()
	if _, err := f.e1.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	x1 := newTestPeer(t, ce, expASN, platformASN, "100.65.0.1", true)
	x1.waitEstablished()
	waitFor(t, 5*time.Second, "v6 route at remote experiment", func() bool {
		for nlri := range x1.v6routes() {
			if nlri.Prefix == pfx("2001:db8:2000::/36") {
				return true
			}
		}
		return false
	})
	// Withdrawal crosses too.
	wd := &bgp.Update{Attrs: &bgp.PathAttrs{}, MPUnreach: []bgp.NLRI{{Prefix: pfx("2001:db8:2000::/36")}}}
	if err := f.n2.sess.Send(wd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "v6 withdraw crosses the backbone", func() bool {
		for nlri := range x1.v6routes() {
			if nlri.Prefix == pfx("2001:db8:2000::/36") {
				return false
			}
		}
		return true
	})
}

func TestLateNeighborReceivesExistingAnnouncements(t *testing.T) {
	// replayExperimentRoutes: an experiment announces BEFORE a neighbor
	// session comes up; the neighbor receives the announcement once
	// established.
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "announcement at N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})

	// A third neighbor joins late.
	cr, cn := pipe.New()
	if _, err := f.router.AddNeighbor(NeighborConfig{
		Name: "N3", ID: 3, ASN: 65003, Addr: ip("192.0.2.3"), Interface: "nbr0", Conn: cr,
	}); err != nil {
		t.Fatal(err)
	}
	n3 := newTestPeer(t, cn, 65003, platformASN, "192.0.2.3", false)
	n3.waitEstablished()
	waitFor(t, 5*time.Second, "replay to the late neighbor", func() bool {
		_, ok := n3.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
}

func TestTTLExpiryAtRouterNotifiesSender(t *testing.T) {
	// sendTimeExceeded: a packet from the experiment LAN with TTL 1
	// expires at the router, which answers from its primary address.
	f := newFig1(t)
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "route", func() bool { return f.nbr2.Table.PathCount() == 1 })

	// The sender must be resolvable for the error to route back: the
	// router delivers to registered tunnel IPs.
	f.router.SetExperimentTunnelIP("X1", ip("100.65.0.1"))
	host := netsim.NewHost("X1")
	ifc := host.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)
	var exceeded atomic.Uint64
	host.Handle(ethernet.ProtoICMP, func(_ *netsim.Host, _ *netsim.Interface, ipkt *ethernet.IPv4) {
		var m ethernet.ICMP
		if m.DecodeFromBytes(ipkt.Payload) == nil && m.Type == ethernet.ICMPTimeExceed {
			exceeded.Add(1)
		}
	})

	mac, err := host.Resolve(ifc, f.nbr2.LocalIP, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt := ethernet.IPv4{TTL: 1, Protocol: ethernet.ProtoUDP,
		Src: ip("100.65.0.1"), Dst: ip("192.168.0.1")}
	ifc.Send(&ethernet.Frame{Dst: mac, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})
	waitFor(t, 5*time.Second, "time exceeded back at sender", func() bool { return exceeded.Load() == 1 })
	if f.router.TTLExpired.Load() != 1 {
		t.Errorf("TTLExpired = %d", f.router.TTLExpired.Load())
	}
}
