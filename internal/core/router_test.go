package core

import (
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/policy"
	"repro/internal/rib"
)

const (
	platformASN = 47065
	n1ASN       = 65001
	n2ASN       = 65002
	expASN      = 61574
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// waitFor polls cond until it holds, failing the test after within.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testPeer is a scripted BGP speaker playing a neighbor or experiment.
type testPeer struct {
	t    *testing.T
	sess *bgp.Session

	mu      sync.Mutex
	updates []*bgp.Update
	estCh   chan struct{}
}

func newTestPeer(t *testing.T, conn *pipe.Conn, localASN, remoteASN uint32, id string, addPath bool) *testPeer {
	p := &testPeer{t: t, estCh: make(chan struct{})}
	cfg := bgp.Config{
		LocalASN: localASN, RemoteASN: remoteASN, LocalID: ip(id),
		Families: []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		OnUpdate: func(u *bgp.Update) {
			p.mu.Lock()
			p.updates = append(p.updates, keep(u))
			p.mu.Unlock()
		},
		OnEstablished: func() { close(p.estCh) },
	}
	if addPath {
		cfg.AddPath = map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSendReceive,
			bgp.IPv6Unicast: bgp.AddPathSendReceive,
		}
	}
	p.sess = bgp.NewSession(conn, cfg)
	go p.sess.Run()
	return p
}

// keep copies an UPDATE the session lends to OnUpdate so the peer can
// hold it: the NLRI lists are copied, the attribute set is the callee's.
func keep(u *bgp.Update) *bgp.Update {
	c := *u
	c.Withdrawn, c.NLRI = slices.Clone(u.Withdrawn), slices.Clone(u.NLRI)
	c.MPReach, c.MPUnreach = slices.Clone(u.MPReach), slices.Clone(u.MPUnreach)
	return &c
}

func (p *testPeer) waitEstablished() {
	p.t.Helper()
	select {
	case <-p.estCh:
	case <-time.After(5 * time.Second):
		p.t.Fatal("test peer did not establish")
	}
}

// routes returns all (prefix, pathID, nexthop) tuples received so far.
func (p *testPeer) routes() map[bgp.NLRI]netip.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[bgp.NLRI]netip.Addr)
	for _, u := range p.updates {
		for _, w := range u.Withdrawn {
			delete(out, w)
		}
		for _, n := range u.NLRI {
			out[n] = u.Attrs.NextHop
		}
	}
	return out
}

func (p *testPeer) lastUpdate() *bgp.Update {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.updates) == 0 {
		return nil
	}
	return p.updates[len(p.updates)-1]
}

func (p *testPeer) updateCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.updates)
}

// announce sends an UPDATE from the peer.
func (p *testPeer) announce(prefix string, asns []uint32, nexthop string, comms ...bgp.Community) {
	p.announceV(prefix, 0, asns, nexthop, comms...)
}

// announceV is announce with an explicit ADD-PATH version ID.
func (p *testPeer) announceV(prefix string, id bgp.PathID, asns []uint32, nexthop string, comms ...bgp.Community) {
	p.t.Helper()
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop:     ip(nexthop),
		Communities: comms,
	}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: pfx(prefix), ID: id}}}
	if err := p.sess.Send(u); err != nil {
		p.t.Fatalf("announce: %v", err)
	}
}

func (p *testPeer) withdraw(prefix string) {
	p.t.Helper()
	u := &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: pfx(prefix)}}}
	if err := p.sess.Send(u); err != nil {
		p.t.Fatalf("withdraw: %v", err)
	}
}

// fig1 builds the paper's Figure 1 scenario: router E1 with neighbors N1
// and N2 on a shared LAN and an experiment LAN.
type fig1 struct {
	router *Router
	nbrLAN *netsim.Segment
	expLAN *netsim.Segment
	n1, n2 *testPeer
	nbr1   *Neighbor
	nbr2   *Neighbor
	n1Host *netsim.Host
	n2Host *netsim.Host
	n1Ifc  *netsim.Interface
	n2Ifc  *netsim.Interface
	engine *policy.Engine
}

func newFig1(t *testing.T) *fig1 { return newFig1With(t, nil) }

// newFig1With is newFig1 with a router Config hook (damping, MRAI, ...).
func newFig1With(t *testing.T, mod func(*Config)) *fig1 {
	t.Helper()
	f := &fig1{
		nbrLAN: netsim.NewSegment("nbr-lan"),
		expLAN: netsim.NewSegment("exp-lan"),
		engine: policy.NewEngine(platformASN),
	}
	f.engine.Register(&policy.Experiment{
		Name:     "X1",
		Prefixes: []netip.Prefix{pfx("10.1.0.0/24")},
		ASNs:     []uint32{expASN},
	})
	f.engine.Register(&policy.Experiment{
		Name:     "X2",
		Prefixes: []netip.Prefix{pfx("10.2.0.0/24")},
		ASNs:     []uint32{expASN + 1},
	})
	rcfg := Config{
		Name: "e1", ASN: platformASN, RouterID: ip("198.51.100.1"),
		Enforcer: f.engine,
	}
	if mod != nil {
		mod(&rcfg)
	}
	f.router = NewRouter(rcfg)
	f.router.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), f.nbrLAN)
	f.router.AddInterface("exp0", "experiment", pfx("100.65.0.254/24"), f.expLAN)

	// Neighbor hosts answer ARP for their addresses and count frames.
	f.n1Host = netsim.NewHost("N1")
	f.n1Ifc = f.n1Host.AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 0, 0x11}, pfx("192.0.2.1/24"), f.nbrLAN)
	f.n2Host = netsim.NewHost("N2")
	f.n2Ifc = f.n2Host.AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 0, 0x22}, pfx("192.0.2.2/24"), f.nbrLAN)

	c1r, c1n := pipe.New()
	var err error
	f.nbr1, err = f.router.AddNeighbor(NeighborConfig{
		Name: "N1", ID: 1, ASN: n1ASN, Addr: ip("192.0.2.1"), Interface: "nbr0", Conn: c1r,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.n1 = newTestPeer(t, c1n, n1ASN, platformASN, "192.0.2.1", false)

	c2r, c2n := pipe.New()
	f.nbr2, err = f.router.AddNeighbor(NeighborConfig{
		Name: "N2", ID: 2, ASN: n2ASN, Addr: ip("192.0.2.2"), Interface: "nbr0", Conn: c2r,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.n2 = newTestPeer(t, c2n, n2ASN, platformASN, "192.0.2.2", false)

	f.n1.waitEstablished()
	f.n2.waitEstablished()
	return f
}

// connectExperiment attaches an experiment BGP session.
func (f *fig1) connectExperiment(t *testing.T, name string, addPath bool) *testPeer {
	t.Helper()
	cr, ce := pipe.New()
	if _, err := f.router.ConnectExperiment(name, expASN, cr); err != nil {
		t.Fatal(err)
	}
	x := newTestPeer(t, ce, expASN, platformASN, "100.65.0.1", addPath)
	x.waitEstablished()
	return x
}

// sessionlessNeighbor registers a local neighbor that has no session
// and no interface, for tests that drive the router's handlers directly.
func sessionlessNeighbor(r *Router, name string, id uint32) *Neighbor {
	n := &Neighbor{Name: name, ID: id, ASN: n1ASN,
		Table: rib.NewTable(r.Name() + ":adj-in:" + name), AdjOut: rib.NewTable(r.Name() + ":adj-out:" + name)}
	r.mu.Lock()
	r.publish(func(t *topology) { t.neighbors = withEntry(t.neighbors, name, n) })
	r.mu.Unlock()
	return n
}

func TestFigure2ControlPlane(t *testing.T) {
	f := newFig1(t)
	// N1 and N2 both announce 192.168.0.0/24 (Fig. 1).
	f.n1.announce("192.168.0.0/24", []uint32{n1ASN}, "192.0.2.1")
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "routes in neighbor tables", func() bool {
		return f.nbr1.Table.PathCount() == 1 && f.nbr2.Table.PathCount() == 1
	})

	x1 := f.connectExperiment(t, "X1", true)
	// Fig. 2a: the experiment sees BOTH routes, with next hops rewritten
	// into the local pool and path IDs identifying the neighbors.
	waitFor(t, 5*time.Second, "both paths at experiment", func() bool {
		return len(x1.routes()) == 2
	})
	routes := x1.routes()
	nh1, ok1 := routes[bgp.NLRI{Prefix: pfx("192.168.0.0/24"), ID: 1}]
	nh2, ok2 := routes[bgp.NLRI{Prefix: pfx("192.168.0.0/24"), ID: 2}]
	if !ok1 || !ok2 {
		t.Fatalf("missing per-neighbor paths: %v", routes)
	}
	if nh1 != f.nbr1.LocalIP || nh2 != f.nbr2.LocalIP {
		t.Errorf("next hops %s/%s, want %s/%s", nh1, nh2, f.nbr1.LocalIP, f.nbr2.LocalIP)
	}
	if !DefaultLocalPool.Contains(nh1) || !DefaultLocalPool.Contains(nh2) {
		t.Errorf("next hops not from the local pool: %s %s", nh1, nh2)
	}

	// Late-arriving routes are exported incrementally.
	f.n1.announce("203.0.113.0/24", []uint32{n1ASN, 64999}, "192.0.2.1")
	waitFor(t, 5*time.Second, "incremental export", func() bool {
		_, ok := x1.routes()[bgp.NLRI{Prefix: pfx("203.0.113.0/24"), ID: 1}]
		return ok
	})

	// Withdrawals propagate with the right path ID.
	f.n1.withdraw("192.168.0.0/24")
	waitFor(t, 5*time.Second, "withdraw export", func() bool {
		_, ok := x1.routes()[bgp.NLRI{Prefix: pfx("192.168.0.0/24"), ID: 1}]
		return !ok
	})
	if _, ok := x1.routes()[bgp.NLRI{Prefix: pfx("192.168.0.0/24"), ID: 2}]; !ok {
		t.Error("N2's path must survive N1's withdrawal")
	}
}

func TestAblationNoAddPath(t *testing.T) {
	// Without ADD-PATH the experiment cannot see both neighbors' routes
	// for one prefix — the visibility limitation of §2.2.2.
	f := newFig1(t)
	f.n1.announce("192.168.0.0/24", []uint32{n1ASN}, "192.0.2.1")
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "routes in tables", func() bool {
		return f.nbr1.Table.PathCount() == 1 && f.nbr2.Table.PathCount() == 1
	})
	x1 := f.connectExperiment(t, "X1", false) // no ADD-PATH capability
	waitFor(t, 5*time.Second, "at least one route", func() bool { return len(x1.routes()) >= 1 })
	time.Sleep(50 * time.Millisecond)
	if got := len(x1.routes()); got != 1 {
		t.Errorf("without ADD-PATH the experiment sees %d routes, want exactly 1", got)
	}
}

func TestFigure2DataPlane(t *testing.T) {
	f := newFig1(t)
	f.n1.announce("192.168.0.0/24", []uint32{n1ASN}, "192.0.2.1")
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "routes", func() bool {
		return f.nbr1.Table.PathCount() == 1 && f.nbr2.Table.PathCount() == 1
	})

	// X1 is a plain host on the experiment LAN preferring N2's route.
	x1 := netsim.NewHost("X1")
	x1ifc := x1.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)

	// Count IPv4 frames arriving at each neighbor.
	var mu sync.Mutex
	got := map[string]int{}
	count := func(name string, ifc *netsim.Interface) {
		ifc.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
			if fr.Type == ethernet.TypeIPv4 {
				mu.Lock()
				got[name]++
				mu.Unlock()
			}
		})
	}
	count("N1", f.n1Ifc)
	count("N2", f.n2Ifc)

	// Fig. 2b steps 5-8: ARP for N2's local next hop, then address the
	// frame to the MAC in the reply.
	nh2 := f.nbr2.LocalIP
	mac, err := x1.Resolve(x1ifc, nh2, time.Second)
	if err != nil {
		t.Fatalf("ARP for %s: %v", nh2, err)
	}
	if mac != f.nbr2.LocalMAC {
		t.Fatalf("ARP answered %s, want N2's assigned MAC %s", mac, f.nbr2.LocalMAC)
	}
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: ip("10.1.0.1"), Dst: ip("192.168.0.1"), Payload: []byte("via-n2")}
	x1ifc.Send(&ethernet.Frame{Dst: mac, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})

	waitFor(t, 5*time.Second, "frame at N2", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got["N2"] == 1
	})
	mu.Lock()
	if got["N1"] != 0 {
		t.Errorf("frame leaked to N1 (%d)", got["N1"])
	}
	mu.Unlock()

	// Same destination via N1's MAC goes to N1: per-packet control.
	mac1, err := x1.Resolve(x1ifc, f.nbr1.LocalIP, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	x1ifc.Send(&ethernet.Frame{Dst: mac1, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})
	waitFor(t, 5*time.Second, "frame at N1", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got["N1"] == 1
	})
	if f.router.Forwarded.Load() != 2 {
		t.Errorf("forwarded = %d", f.router.Forwarded.Load())
	}
}

func TestDataPlaneNoRouteDrops(t *testing.T) {
	f := newFig1(t)
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "route", func() bool { return f.nbr2.Table.PathCount() == 1 })

	x1 := netsim.NewHost("X1")
	x1ifc := x1.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)
	// N1 announced nothing: steering a packet at N1's MAC must drop.
	mac1, err := x1.Resolve(x1ifc, f.nbr1.LocalIP, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt := ethernet.IPv4{TTL: 64, Src: ip("10.1.0.1"), Dst: ip("192.168.0.1")}
	x1ifc.Send(&ethernet.Frame{Dst: mac1, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})
	waitFor(t, 5*time.Second, "drop counted", func() bool { return f.router.DroppedNoRoute.Load() == 1 })
}

func TestInboundTrafficSourceMACAttribution(t *testing.T) {
	f := newFig1(t)
	x1sess := f.connectExperiment(t, "X1", true)
	_ = x1sess

	// Experiment host on the LAN, its tunnel address registered as the
	// platform does when it attaches the tap, and its announcement with
	// that address as next hop.
	x1 := netsim.NewHost("X1")
	x1ifc := x1.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)
	f.router.SetExperimentTunnelIP("X1", ip("100.65.0.1"))

	var mu sync.Mutex
	var rxSrcMAC ethernet.MAC
	var rxCount int
	x1ifc.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
		if fr.Type == ethernet.TypeIPv4 {
			mu.Lock()
			rxSrcMAC = fr.Src
			rxCount++
			mu.Unlock()
		}
	})

	x1sess.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "experiment route installed", func() bool {
		return f.router.ExperimentRoutes().Lookup(ip("10.1.0.1")) != nil
	})
	// The announcement reached both neighbors (no communities attached).
	waitFor(t, 5*time.Second, "announcement at N2", func() bool {
		_, ok := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})

	// N2 sends traffic to the experiment prefix via the router.
	rtrMAC, err := f.n2Host.Resolve(f.n2Ifc, ip("192.0.2.254"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: ip("192.168.0.9"), Dst: ip("10.1.0.7"), Payload: []byte("inbound")}
	f.n2Ifc.Send(&ethernet.Frame{Dst: rtrMAC, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})

	waitFor(t, 5*time.Second, "inbound frame at experiment", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return rxCount == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if rxSrcMAC != f.nbr2.LocalMAC {
		t.Errorf("source MAC %s, want N2's assigned MAC %s (delivering-neighbor attribution)",
			rxSrcMAC, f.nbr2.LocalMAC)
	}
}

func TestCommunitySteeredAnnouncements(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)

	// Whitelist: announce only to N1 (community platform:1).
	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1", AnnounceTo(platformASN, 1))
	waitFor(t, 5*time.Second, "announcement at N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	time.Sleep(50 * time.Millisecond)
	if _, leaked := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]; leaked {
		t.Fatal("whitelisted announcement leaked to N2")
	}

	// The control community must be stripped and the platform ASN
	// prepended on the exported route.
	u := f.n1.lastUpdate()
	if u == nil || len(u.NLRI) == 0 {
		t.Fatal("no update at N1")
	}
	for _, c := range u.Attrs.Communities {
		if uint32(c.ASN()) == platformASN {
			t.Errorf("control community %s leaked to the Internet", c)
		}
	}
	flat := u.Attrs.ASPathFlat()
	if len(flat) != 2 || flat[0] != platformASN || flat[1] != expASN {
		t.Errorf("exported AS path %v, want [%d %d]", flat, platformASN, expASN)
	}
	if u.Attrs.NextHop != ip("192.0.2.254") {
		t.Errorf("exported next hop %s, want router address", u.Attrs.NextHop)
	}
}

func TestCommunityBlacklist(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1", NoExportTo(platformASN, 1))
	waitFor(t, 5*time.Second, "announcement at N2", func() bool {
		_, ok := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	time.Sleep(50 * time.Millisecond)
	if _, leaked := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]; leaked {
		t.Fatal("blacklisted neighbor received the announcement")
	}
}

func TestPerNeighborDifferentAnnouncements(t *testing.T) {
	// §2.2.2's motivating example: prepended announcement to N1, plain
	// announcement of the SAME prefix to N2, in parallel.
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)

	x1.announceV("10.1.0.0/24", 1, []uint32{expASN, expASN, expASN}, "100.65.0.1", AnnounceTo(platformASN, 1))
	x1.announceV("10.1.0.0/24", 2, []uint32{expASN}, "100.65.0.1", AnnounceTo(platformASN, 2))

	waitFor(t, 5*time.Second, "both neighbors have the prefix", func() bool {
		_, a := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		_, b := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return a && b
	})
	u1, u2 := f.n1.lastUpdate(), f.n2.lastUpdate()
	if l := u1.Attrs.ASPathLen(); l != 4 { // platform + 3x experiment
		t.Errorf("N1 path length %d, want 4 (prepended)", l)
	}
	if l := u2.Attrs.ASPathLen(); l != 2 {
		t.Errorf("N2 path length %d, want 2 (plain)", l)
	}
}

func TestHijackBlockedAtRouter(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	// X1 tries to announce address space it does not own.
	x1.announce("8.8.8.0/24", []uint32{expASN}, "100.65.0.1")
	time.Sleep(100 * time.Millisecond)
	if _, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("8.8.8.0/24")}]; ok {
		t.Fatal("hijack propagated to a neighbor")
	}
	if f.router.ExperimentRoutes().Lookup(ip("8.8.8.8")) != nil {
		t.Fatal("hijack installed in experiment routes")
	}
	// The audit log attributes the attempt.
	found := false
	for _, e := range f.engine.Audit() {
		if e.Experiment == "X1" && e.Action == policy.ActionReject {
			found = true
		}
	}
	if !found {
		t.Error("no audit entry for rejected hijack")
	}
}

func TestExperimentWithdrawPropagates(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "announcement at N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	x1.withdraw("10.1.0.0/24")
	waitFor(t, 5*time.Second, "withdraw at N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return !ok
	})
	waitFor(t, 5*time.Second, "exp route removed", func() bool {
		return f.router.ExperimentRoutes().Lookup(ip("10.1.0.1")) == nil
	})
}

func TestExperimentDisconnectWithdrawsRoutes(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "announcement at N2", func() bool {
		_, ok := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	x1.sess.Close()
	waitFor(t, 5*time.Second, "withdraw at N2 after disconnect", func() bool {
		_, ok := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return !ok
	})
}

func TestNeighborDownWithdrawsFromExperiments(t *testing.T) {
	f := newFig1(t)
	f.n1.announce("192.168.0.0/24", []uint32{n1ASN}, "192.0.2.1")
	waitFor(t, 5*time.Second, "route", func() bool { return f.nbr1.Table.PathCount() == 1 })
	x1 := f.connectExperiment(t, "X1", true)
	waitFor(t, 5*time.Second, "route at experiment", func() bool { return len(x1.routes()) == 1 })

	f.n1.sess.Close()
	waitFor(t, 5*time.Second, "withdraw at experiment", func() bool { return len(x1.routes()) == 0 })
}

func TestParallelExperimentsIsolated(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	x2 := f.connectExperiment(t, "X2", true)

	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	x2.announce("10.2.0.0/24", []uint32{expASN + 1}, "100.65.0.2")
	waitFor(t, 5*time.Second, "both announcements at N1", func() bool {
		r := f.n1.routes()
		_, a := r[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		_, b := r[bgp.NLRI{Prefix: pfx("10.2.0.0/24")}]
		return a && b
	})
	// X2 cannot announce X1's prefix (isolation between experiments).
	x2.announce("10.1.0.0/24", []uint32{expASN + 1}, "100.65.0.2")
	time.Sleep(100 * time.Millisecond)
	paths := f.router.ExperimentRoutes().Paths(pfx("10.1.0.0/24"))
	for _, p := range paths {
		if p.Peer == "X2" {
			t.Fatal("X2 hijacked X1's prefix")
		}
	}
}

func TestMACForGlobalIPDeterministic(t *testing.T) {
	gip := ip("127.127.0.9")
	m1, m2 := MACForGlobalIP(gip), MACForGlobalIP(gip)
	if m1 != m2 {
		t.Fatal("derived MAC not deterministic")
	}
	if m1.IsMulticast() || m1[0]&0x02 == 0 {
		t.Errorf("derived MAC %s not locally administered unicast", m1)
	}
	if MACForGlobalIP(ip("127.127.0.10")) == m1 {
		t.Error("distinct global IPs must derive distinct MACs")
	}
}

func TestPoolAllocation(t *testing.T) {
	p := NewPool(pfx("127.65.0.0/30"))
	a1 := p.MustAlloc()
	a2 := p.MustAlloc()
	a3 := p.MustAlloc()
	if a1 == a2 || a2 == a3 {
		t.Error("pool reused addresses")
	}
	if !p.Contains(a1) || !p.Contains(a3) {
		t.Error("allocations outside pool")
	}
	if _, err := p.Alloc(); err == nil {
		t.Error("exhausted pool kept allocating")
	}
}

func TestDuplicateNeighborRejected(t *testing.T) {
	f := newFig1(t)
	c, _ := pipe.New()
	_, err := f.router.AddNeighbor(NeighborConfig{
		Name: "N1", ID: 9, ASN: 65009, Addr: ip("192.0.2.9"), Interface: "nbr0", Conn: c,
	})
	if err == nil {
		t.Fatal("duplicate neighbor accepted")
	}
	_, err = f.router.AddNeighbor(NeighborConfig{
		Name: "N9", ID: 0, ASN: 65009, Addr: ip("192.0.2.9"), Interface: "nbr0", Conn: c,
	})
	if err == nil {
		t.Fatal("zero neighbor ID accepted")
	}
}

func TestRouteCount(t *testing.T) {
	f := newFig1(t)
	f.n1.announce("192.168.0.0/24", []uint32{n1ASN}, "192.0.2.1")
	f.n1.announce("192.168.1.0/24", []uint32{n1ASN}, "192.0.2.1")
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "3 routes", func() bool { return f.router.RouteCount() == 3 })
}

func TestLookupVia(t *testing.T) {
	f := newFig1(t)
	f.n1.announce("192.168.0.0/24", []uint32{n1ASN}, "192.0.2.1")
	waitFor(t, 5*time.Second, "route", func() bool { return f.nbr1.Table.PathCount() == 1 })
	if p := f.router.LookupVia("N1", ip("192.168.0.77")); p == nil {
		t.Fatal("LookupVia miss")
	}
	if p := f.router.LookupVia("N2", ip("192.168.0.77")); p != nil {
		t.Fatal("LookupVia hit on wrong neighbor table")
	}
	if p := f.router.LookupVia("nope", ip("192.168.0.77")); p != nil {
		t.Fatal("LookupVia hit on unknown neighbor")
	}
	_ = rib.Path{} // keep the rib import for the helper types above
}

func TestTwoOctetNeighborSeesASTransWithAS4Path(t *testing.T) {
	// Interop (RFC 6793): an experiment with a 4-octet ASN announces; a
	// neighbor whose session has no 4-octet-AS capability receives
	// AS_TRANS in AS_PATH plus AS4_PATH, which its decoder merges back.
	f := newFig1(t)
	const bigASN = 4200000001
	f.engine.Register(&policy.Experiment{
		Name:     "X1",
		Prefixes: []netip.Prefix{pfx("10.1.0.0/24")},
		ASNs:     []uint32{bigASN},
	})

	// Replace N1 with a 2-octet-only speaker.
	cr, cn := pipe.New()
	if _, err := f.router.AddNeighbor(NeighborConfig{
		Name: "oldrouter", ID: 9, ASN: 64999, Addr: ip("192.0.2.9"), Interface: "nbr0", Conn: cr,
	}); err != nil {
		t.Fatal(err)
	}
	old := &testPeer{t: t, estCh: make(chan struct{})}
	old.sess = bgp.NewSession(cn, bgp.Config{
		LocalASN: 64999, RemoteASN: platformASN, LocalID: ip("192.0.2.9"),
		DisableAS4: true,
		OnUpdate: func(u *bgp.Update) {
			old.mu.Lock()
			old.updates = append(old.updates, keep(u))
			old.mu.Unlock()
		},
		OnEstablished: func() { close(old.estCh) },
	})
	go old.sess.Run()
	old.waitEstablished()

	cr2, ce := pipe.New()
	if _, err := f.router.ConnectExperiment("X1", bigASN, cr2); err != nil {
		t.Fatal(err)
	}
	x1 := newTestPeer(t, ce, bigASN, platformASN, "100.65.0.1", true)
	x1.waitEstablished()
	x1.announce("10.1.0.0/24", []uint32{bigASN}, "100.65.0.1")

	waitFor(t, 5*time.Second, "announcement at 2-octet neighbor", func() bool {
		_, ok := old.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	u := old.lastUpdate()
	flat := u.Attrs.ASPathFlat()
	// The decoder merged AS4_PATH: the true 4-octet origin is visible.
	if len(flat) != 2 || flat[0] != platformASN || flat[1] != bigASN {
		t.Errorf("merged path %v, want [%d %d]", flat, platformASN, bigASN)
	}
}

func TestExperimentsDoNotSeeEachOthersAnnouncements(t *testing.T) {
	// Visibility isolation: experiment announcements go to neighbors and
	// the mesh, never to the other experiments' sessions.
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	x2 := f.connectExperiment(t, "X2", true)

	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "announcement at N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	time.Sleep(50 * time.Millisecond)
	for nlri := range x2.routes() {
		if nlri.Prefix == pfx("10.1.0.0/24") {
			t.Fatal("X2 received X1's announcement")
		}
	}
}

func TestVersionWithdrawFallsBackToOlderVersion(t *testing.T) {
	// syncPrefix reconciliation: withdrawing the newest version of a
	// prefix re-exports the surviving older version to the neighbors it
	// targets.
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)

	x1.announceV("10.1.0.0/24", 1, []uint32{expASN, expASN}, "100.65.0.1") // prepended
	waitFor(t, 5*time.Second, "v1 at N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	x1.announceV("10.1.0.0/24", 2, []uint32{expASN}, "100.65.0.1") // plain, newer
	waitFor(t, 5*time.Second, "v2 at N1", func() bool {
		u := f.n1.lastUpdate()
		return u != nil && len(u.NLRI) == 1 && u.Attrs.ASPathLen() == 2
	})

	// Withdraw version 2: version 1 (prepended) must come back.
	u := &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: pfx("10.1.0.0/24"), ID: 2}}}
	if err := x1.sess.Send(u); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "fallback to v1", func() bool {
		last := f.n1.lastUpdate()
		return last != nil && len(last.NLRI) == 1 && last.Attrs.ASPathLen() == 3
	})

	// Withdrawing the final version removes the prefix entirely.
	u = &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: pfx("10.1.0.0/24"), ID: 1}}}
	if err := x1.sess.Send(u); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "prefix gone from N1", func() bool {
		_, ok := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return !ok
	})
}

// LookupVia returns the route neighbor n would use for dst — the lookup
// the data plane performs per packet.
func (r *Router) LookupVia(neighborName string, dst netip.Addr) *rib.Path {
	n := r.Neighbor(neighborName)
	if n == nil {
		return nil
	}
	return n.Table.Lookup(dst)
}

// TestLoopedNeighborPathDropped: a neighbor UPDATE whose AS path already
// carries the platform ASN is one of the platform's own announcements
// reflected back (RFC 4271 §9.1.2). It lands in no table and reaches no
// experiment.
func TestLoopedNeighborPathDropped(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)

	looped, steady := "192.168.20.0/24", "192.168.21.0/24"
	f.n1.announce(looped, []uint32{n1ASN, platformASN, 64999}, "192.0.2.1")
	// The session delivers UPDATEs in order: once the next one is
	// exported, the looped one has been handled.
	f.n1.announce(steady, []uint32{n1ASN}, "192.0.2.1")
	waitFor(t, 5*time.Second, "the following route at the experiment", func() bool {
		_, ok := x1.routes()[bgp.NLRI{Prefix: pfx(steady), ID: 1}]
		return ok
	})
	for _, n := range []*Neighbor{f.nbr1, f.nbr2} {
		if paths := n.Table.Paths(pfx(looped)); len(paths) != 0 {
			t.Errorf("%s's table holds the looped path: %v", n.Name, paths)
		}
	}
	if _, ok := x1.routes()[bgp.NLRI{Prefix: pfx(looped), ID: 1}]; ok {
		t.Error("the looped path reached the experiment")
	}
}

// sessionContexts returns the distinct session contexts of t's paths.
func sessionContexts(t *rib.Table) map[*rib.PeerInfo]bool {
	seen := map[*rib.PeerInfo]bool{}
	t.Walk(func(_ netip.Prefix, paths []*rib.Path) bool {
		for _, p := range paths {
			seen[p.From] = true
		}
		return true
	})
	return seen
}

// TestSessionPathsSharePeerInfo: every path learned from one session —
// over several UPDATEs, several per UPDATE, and in the default-table
// mirror — points at one PeerInfo carrying the session's address and
// router ID; another session's paths point at another. Remote
// neighbors' paths share one too, keyed by their global address.
func TestSessionPathsSharePeerInfo(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		f := newFig1With(t, func(c *Config) { c.MaintainDefaultTable = true })
		f.n1.announce("192.168.0.0/24", []uint32{n1ASN}, "192.0.2.1")
		f.n1.announce("192.168.1.0/24", []uint32{n1ASN, 64999}, "192.0.2.1")
		if err := f.n1.sess.Send(&bgp.Update{
			Attrs: &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("192.0.2.1"),
				ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{n1ASN}}}},
			NLRI: []bgp.NLRI{{Prefix: pfx("10.9.0.0/24")}, {Prefix: pfx("172.16.0.0/24")}, {Prefix: pfx("203.0.113.0/24")}},
		}); err != nil {
			t.Fatal(err)
		}
		f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
		waitFor(t, 5*time.Second, "routes in the neighbor tables", func() bool {
			return f.nbr1.Table.PathCount() == 5 && f.nbr2.Table.PathCount() == 1
		})
		want := map[*Neighbor]rib.PeerInfo{
			f.nbr1: {Addr: ip("192.0.2.1"), RouterID: ip("192.0.2.1")},
			f.nbr2: {Addr: ip("192.0.2.2"), RouterID: ip("192.0.2.2")},
		}
		shared := map[*rib.PeerInfo]bool{}
		for n, w := range want {
			seen := sessionContexts(n.Table)
			if len(seen) != 1 {
				t.Fatalf("%s's paths point at %d session contexts, want 1", n.Name, len(seen))
			}
			for pi := range seen {
				if pi == nil || *pi != w {
					t.Fatalf("%s's session context is %v, want %v", n.Name, pi, w)
				}
				shared[pi] = true
			}
		}
		if len(shared) != 2 {
			t.Error("two sessions share one session context")
		}
		waitFor(t, 5*time.Second, "the default table", func() bool { return f.router.DefaultTable().PathCount() == 6 })
		for pi := range sessionContexts(f.router.DefaultTable()) {
			if !shared[pi] {
				t.Errorf("a default-table path points at its own session context %v", pi)
			}
		}
	})
	t.Run("remote", func(t *testing.T) {
		f := newFig5(t)
		f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "198.18.0.1")
		f.n2.announce("192.168.1.0/24", []uint32{n2ASN}, "198.18.0.1")
		var remote *Neighbor
		waitFor(t, 5*time.Second, "the remote neighbor's routes at e1", func() bool {
			for _, n := range f.e1.Neighbors() {
				if n.Remote && n.Table.PathCount() == 2 {
					remote = n
					return true
				}
			}
			return false
		})
		seen := sessionContexts(remote.Table)
		if len(seen) != 1 {
			t.Fatalf("the remote neighbor's paths point at %d session contexts, want 1", len(seen))
		}
		for pi := range seen {
			if pi == nil || pi.Addr != remote.GlobalIP {
				t.Errorf("the remote neighbor's session context is %v, want address %s", pi, remote.GlobalIP)
			}
		}
	})
}
