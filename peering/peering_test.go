package peering

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

const expASN = 61574

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// waitFor polls cond until it holds, failing the test after within. A
// test waits on p.quiesced (Platform.Quiesce), then asserts exact state.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(quiesceEvery)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testbed builds a small platform: an Internet, one PoP with a transit
// and a peer, and an approved experiment.
func testbed(t *testing.T) (*Platform, *PoP, *Client) {
	t.Helper()
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)

	p := NewPlatform(PlatformConfig{ASN: 47065, Topology: topo})
	pop, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pop.ConnectTransit(1000, 30); err != nil { // tier-2 transit
		t.Fatal(err)
	}
	if _, err := pop.ConnectPeer(10000, 30); err != nil { // edge peer
		t.Fatal(err)
	}

	if err := p.Submit(Proposal{
		Name: "exp1", Owner: "alice", Plan: "announce and measure",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{expASN},
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("exp1", nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, pop, NewClient("exp1", key, expASN)
}

func TestProposalWorkflow(t *testing.T) {
	p := NewPlatform(PlatformConfig{ASN: 47065})
	if err := p.Submit(Proposal{Name: "x"}); err == nil {
		t.Error("incomplete proposal accepted")
	}
	prop := Proposal{Name: "x", Owner: "o", Plan: "p",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/24")}, ASNs: []uint32{expASN}}
	if err := p.Submit(prop); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(prop); err == nil {
		t.Error("duplicate proposal accepted")
	}
	if got := p.Proposals(); len(got) != 1 || got[0].Status != StatusPending {
		t.Fatalf("proposals = %v", got)
	}
	if _, err := p.Approve("z", nil); err == nil {
		t.Error("approved a proposal never filed")
	}
	// Approval registers the trimmed capabilities with the engine.
	key, err := p.Approve("x", &policy.Capabilities{MaxPoisonedASNs: 1})
	if err != nil || key == "" {
		t.Fatalf("approve: %q %v", key, err)
	}
	if e := p.Engine.Experiment("x"); e == nil || e.Caps.MaxPoisonedASNs != 1 {
		t.Error("approval did not register trimmed capabilities")
	}
	p.Forget("x")
	if p.Engine.Experiment("x") != nil {
		t.Error("forgotten experiment still registered")
	}
	if err := p.Submit(prop); err != nil {
		t.Errorf("name not released by Forget: %v", err)
	}
}

func TestTunnelLifecycle(t *testing.T) {
	_, pop, c := testbed(t)
	if c.TunnelStatus("amsix") != "down" {
		t.Error("status before open")
	}
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	if c.TunnelStatus("amsix") != "up" {
		t.Error("status after open")
	}
	if err := c.OpenTunnel(pop); err == nil {
		t.Error("double open accepted")
	}
	if !c.LocalIP("amsix").IsValid() {
		t.Error("no tunnel address assigned")
	}
	if err := c.CloseTunnel("amsix"); err != nil {
		t.Fatal(err)
	}
	if c.TunnelStatus("amsix") != "down" {
		t.Error("status after close")
	}
}

func TestUnauthorizedClientRejected(t *testing.T) {
	_, pop, _ := testbed(t)
	bad := NewClient("exp1", "wrong-key", expASN)
	if err := bad.OpenTunnel(pop); err == nil {
		t.Fatal("wrong key accepted")
	}
	ghost := NewClient("ghost", "whatever", expASN)
	if err := ghost.OpenTunnel(pop); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestClientSeesRoutesViaAddPath(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	if err := c.StartBGP("amsix"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Both neighbors announce a tier-1 prefix: the client must see two
	// paths for it, one per neighbor, with local-pool next hops.
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "two paths for the probe prefix", func() bool {
		return len(c.RoutesFor("amsix", probe)) == 2
	})
	ids := map[uint32]bool{}
	for _, p := range c.RoutesFor("amsix", probe) {
		ids[uint32(p.ID)] = true
		if !pfx("127.65.0.0/16").Contains(p.NextHop()) {
			t.Errorf("next hop %s outside local pool", p.NextHop())
		}
	}
	if len(ids) != 2 {
		t.Errorf("path IDs %v", ids)
	}
}

func TestAnnouncementPropagatesIntoInternet(t *testing.T) {
	p, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	if err := c.StartBGP("amsix"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	topo := p.Topology()
	waitFor(t, 5*time.Second, "announcement reaches a distant stub", func() bool {
		return topo.Reachable(10020, pfx("184.164.224.0/24"))
	})
	rt := topo.RouteAt(10020, pfx("184.164.224.0/24"))
	flat := rt.Path
	if flat[len(flat)-1] != expASN || flat[len(flat)-2] != 47065 {
		t.Errorf("distant path %v should end ... 47065 %d", flat, expASN)
	}
}

func TestSelectiveAnnouncement(t *testing.T) {
	p, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Neighbor IDs: transit=1, peer=2 (allocation order in testbed).
	if err := c.Announce("amsix", pfx("184.164.224.0/24"), ToNeighbors(2)); err != nil {
		t.Fatal(err)
	}
	topo := p.Topology()
	// The peer (AS 10000) learns it...
	waitFor(t, 5*time.Second, "peer learns the prefix", func() bool {
		return topo.Reachable(10000, pfx("184.164.224.0/24"))
	})
	waitFor(t, 5*time.Second, "the platform to quiesce", p.quiesced)
	// ...but the transit (AS 1000) must not have received it directly:
	// its path, if any, goes through the peer, not through the platform.
	if rt := topo.RouteAt(1000, pfx("184.164.224.0/24")); rt != nil {
		if len(rt.Path) >= 2 && rt.Path[1] == 47065 {
			t.Errorf("transit received a whitelisted-away announcement: %v", rt.Path)
		}
	}
}

func TestHijackBlockedEndToEnd(t *testing.T) {
	p, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	victim := inet.PrefixForASN(10000)
	if err := c.Announce("amsix", victim); err != nil {
		t.Fatal(err) // the session accepts it; enforcement drops it
	}
	waitFor(t, 5*time.Second, "the platform to quiesce", p.quiesced)
	rt := p.Topology().RouteAt(1000, victim)
	for _, hop := range rt.Path {
		if hop == 47065 {
			t.Fatal("hijack escaped the platform")
		}
	}
}

func TestDataPlanePerPacketEgress(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) == 2 })

	dst := probe.Addr().Next()
	pkt := &ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: addr("184.164.224.1"), Dst: dst,
		Payload: []byte("probe")}
	if err := c.SendIP("amsix", 1, pkt); err != nil {
		t.Fatalf("send via neighbor 1: %v", err)
	}
	if err := c.SendIP("amsix", 2, pkt); err != nil {
		t.Fatalf("send via neighbor 2: %v", err)
	}
	if err := c.SendIP("amsix", 0, pkt); err != nil {
		t.Fatalf("send via best: %v", err)
	}
	waitFor(t, 5*time.Second, "frames forwarded", func() bool {
		return pop.Router.Forwarded.Load() >= 3
	})
	if err := c.SendIP("amsix", 99, pkt); err == nil {
		t.Error("send via unknown neighbor accepted")
	}
}

func TestAntiSpoofingDropsForgedSource(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) >= 1 })

	forwardedBefore := pop.Router.Forwarded.Load()
	drops := tapDrops("amsix", "exp1")
	dropsBefore := drops.Value()
	spoofed := &ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: addr("8.8.8.8"), Dst: probe.Addr().Next(), Payload: []byte("spoof")}
	if err := c.SendIP("amsix", 0, spoofed); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the tap's spoofed-drop count", func() bool { return drops.Value() == dropsBefore+1 })
	if pop.Router.Forwarded.Load() != forwardedBefore {
		t.Error("spoofed packet was forwarded")
	}
}

// TestRegistrationChangesReachOpenTaps: every change to an experiment's
// registration reaches the taps already open — a deployed model that
// shrinks the allocation drops the freed sources at once, and Forget
// leaves the tap passing nothing but its own tunnel address (§4.7).
func TestRegistrationChangesReachOpenTaps(t *testing.T) {
	p, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	pc, err := c.conn("amsix")
	if err != nil {
		t.Fatal(err)
	}
	kept, freed := addr("184.164.224.1"), addr("184.164.225.1")
	if got := tapPasses(t, pop, pc, kept, freed); !got[kept] || !got[freed] {
		t.Fatalf("the tap passed %v, want both sources of the /23", got)
	}
	p.syncPolicy(config.Model{Experiments: []config.ExperimentSpec{{
		Name: "exp1", ASNs: []uint32{expASN}, Prefixes: []netip.Prefix{pfx("184.164.224.0/24")}, Approved: true,
	}}})
	if got := tapPasses(t, pop, pc, kept, freed); !got[kept] || got[freed] {
		t.Fatalf("after the deployed /24 the tap passed %v, want only %s", got, kept)
	}
	p.Forget("exp1")
	if got := tapPasses(t, pop, pc, kept, freed); got[kept] || got[freed] {
		t.Fatalf("after Forget the tap passed %v, want neither source", got)
	}
}

// tapPasses sends one IPv4 frame from each source through the client's
// open tunnel to pop, then one from the tunnel's own address, which the
// tap always passes. The tap judges a tunnel's frames in order, so once
// that last frame is on the experiment LAN every earlier one has been
// judged. It reports which of the sources passed.
func tapPasses(t *testing.T, pop *PoP, pc *popConn, srcs ...netip.Addr) map[netip.Addr]bool {
	t.Helper()
	var mu sync.Mutex
	seen := map[netip.Addr]bool{}
	sniffer := netsim.NewInterface("sniffer", ethernet.MAC{0x02, 0xee, 0, 0, 0, 1})
	sniffer.SetRawHandler(func(_ *netsim.Interface, data []byte) {
		var fr ethernet.Frame
		if fr.DecodeFromBytes(data) == nil && fr.Type == ethernet.TypeIPv4 && len(fr.Payload) >= 16 {
			mu.Lock()
			seen[netip.AddrFrom4([4]byte(fr.Payload[12:16]))] = true
			mu.Unlock()
		}
	})
	sniffer.Attach(pop.ExpLAN())
	defer sniffer.Attach(nil)
	self := pc.local()
	for _, src := range append(srcs, self) {
		ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: src, Dst: addr("192.0.2.1")}
		fr := ethernet.Frame{Dst: sniffer.MAC(), Src: clientMACFor(pc), Type: ethernet.TypeIPv4, Payload: ip.Marshal()}
		if err := pc.transport().SendFrame(fr.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "the tunnel address's frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[self]
	})
	mu.Lock()
	defer mu.Unlock()
	delete(seen, self)
	return seen
}

// tapDrops is the counter of frames the experiment's tunnel tap at a PoP
// dropped as spoofed. The registry is process-wide: read deltas.
func tapDrops(pop, experiment string) *telemetry.Counter {
	return telemetry.Default().Counter("peering_tap_drops_total",
		telemetry.L("pop", pop), telemetry.L("experiment", experiment), telemetry.L("reason", "spoofed"))
}

func TestCLI(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if out := c.CLI("amsix", "show protocols"); !strings.Contains(out, "Established") {
		t.Errorf("show protocols: %q", out)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) >= 1 })
	if out := c.CLI("amsix", "show route"); !strings.Contains(out, probe.String()) {
		t.Errorf("show route missing %s:\n%s", probe, out)
	}
	if out := c.CLI("amsix", "show route "+probe.String()); !strings.Contains(out, "via 127.65.") {
		t.Errorf("show route <prefix>: %q", out)
	}
	if out := c.CLI("amsix", "flush dns"); !strings.Contains(out, "syntax error") {
		t.Errorf("bad command: %q", out)
	}
	if out := c.CLI("nowhere", "show protocols"); !strings.Contains(out, "no tunnel") {
		t.Errorf("unknown pop: %q", out)
	}
}

func TestBGPStopAndStatus(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	if c.BGPStatus("amsix") != bgp.StateIdle {
		t.Error("status before start")
	}
	if err := c.StopBGP("amsix"); err == nil {
		t.Error("stop before start accepted")
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if c.BGPStatus("amsix") != bgp.StateEstablished {
		t.Error("status after establish")
	}
	if err := c.StopBGP("amsix"); err != nil {
		t.Fatal(err)
	}
	if c.BGPStatus("amsix") != bgp.StateIdle {
		t.Error("status after stop")
	}
}

// neighborLink moves the router's interface on topology neighbor asn's
// link onto a fresh segment and returns it with an interface standing in
// for the neighbor's edge there, under the edge's MAC.
func neighborLink(pop *PoP, asn uint32) (router, neighbor *netsim.Interface) {
	router = pop.Router.Interface(fmt.Sprintf("nbr-as%d", asn))
	seg := netsim.NewSegment("test-link")
	router.Attach(seg)
	neighbor = netsim.NewInterface("edge", ethernet.MAC{0x02, 0xa5, byte(asn >> 24), byte(asn >> 16), byte(asn >> 8), byte(asn)})
	neighbor.Attach(seg)
	return router, neighbor
}

func TestInboundTrafficReachesClient(t *testing.T) {
	p, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got int
	var fromMAC ethernet.MAC
	c.OnPacket("amsix", func(ip *ethernet.IPv4, from ethernet.MAC) {
		mu.Lock()
		got++
		fromMAC = from
		mu.Unlock()
	})
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "announcement installed", func() bool {
		return pop.Router.ExperimentRoutes().Lookup(addr("184.164.224.9")) != nil
	})

	// Simulate inbound traffic arriving at the peer-neighbor port:
	// inject a frame at the router's neighbor interface as if the peer
	// delivered it.
	nbr := pop.Router.Neighbor("as10000")
	if nbr == nil {
		t.Fatal("peer neighbor missing")
	}
	ifc, sender := neighborLink(pop, 10000)
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: addr("9.9.9.9"), Dst: addr("184.164.224.9"), Payload: []byte("hello")}
	sender.Send(&ethernet.Frame{Dst: ifc.MAC(), Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})

	waitFor(t, 5*time.Second, "packet at client", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if fromMAC != nbr.LocalMAC {
		t.Errorf("delivering-neighbor MAC %s, want %s", fromMAC, nbr.LocalMAC)
	}
	_ = p
}

// TestForeignNextHopRefused: an experiment that announces its own prefix
// with another experiment's tunnel address as next hop does not steer
// that prefix's traffic onto the other experiment's tap (§3.3). Delivery
// follows the address the platform registered when it attached each tap.
func TestForeignNextHopRefused(t *testing.T) {
	p, pop, c1 := testbed(t)
	if err := p.Submit(Proposal{
		Name: "exp2", Owner: "bob", Plan: "announce and measure",
		Prefixes: []netip.Prefix{pfx("184.164.226.0/24")},
		ASNs:     []uint32{expASN + 1},
	}); err != nil {
		t.Fatal(err)
	}
	key2, err := p.Approve("exp2", nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient("exp2", key2, expASN+1)
	var got1, got2 atomic.Int64
	for _, c := range []*Client{c1, c2} {
		if err := c.OpenTunnel(pop); err != nil {
			t.Fatal(err)
		}
		c.StartBGP("amsix")
		if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c1.OnPacket("amsix", func(*ethernet.IPv4, ethernet.MAC) { got1.Add(1) })
	c2.OnPacket("amsix", func(*ethernet.IPv4, ethernet.MAC) { got2.Add(1) })

	// exp2 announces its own prefix with exp1's tunnel address as next hop.
	pc2, err := c2.conn("amsix")
	if err != nil {
		t.Fatal(err)
	}
	foreign := c1.LocalIP("amsix")
	if err := pc2.session().Send(buildAnnouncement(c2.ASN, pc2.platformASN, foreign, pfx("184.164.226.0/24"), announcement{})); err != nil {
		t.Fatal(err)
	}
	dst := addr("184.164.226.9")
	waitFor(t, 5*time.Second, "exp2's route installed", func() bool {
		path := pop.Router.ExperimentRoutes().Lookup(dst)
		return path != nil && path.Peer == "exp2"
	})

	ifc, sender := neighborLink(pop, 10000)
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: addr("9.9.9.9"), Dst: dst, Payload: []byte("for exp2")}
	for i := 0; i < 3; i++ {
		sender.Send(&ethernet.Frame{Dst: ifc.MAC(), Type: ethernet.TypeIPv4, Payload: pkt.Marshal()})
	}
	waitFor(t, 5*time.Second, "neighbor traffic for exp2's prefix at exp2's tap", func() bool { return got2.Load() == 3 })
	if n := got1.Load(); n != 0 {
		t.Fatalf("exp1 received %d frames for exp2's prefix", n)
	}
}

// TestTunnelAddressUnregisteredWhenTunnelCloses: traffic for the tunnel
// address reaches the client before it has a BGP session, and once the
// tunnel is gone the router refuses it as unroutable straight away — the
// tap's teardown unregisters the address — instead of holding the
// forwarding goroutine for an ARP timeout on a detached tap.
func TestTunnelAddressUnregisteredWhenTunnelCloses(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	c.OnPacket("amsix", func(*ethernet.IPv4, ethernet.MAC) { got.Add(1) })
	ifc, sender := neighborLink(pop, 10000)
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: addr("9.9.9.9"), Dst: c.LocalIP("amsix")}
	send := func() { sender.Send(&ethernet.Frame{Dst: ifc.MAC(), Type: ethernet.TypeIPv4, Payload: pkt.Marshal()}) }

	send()
	waitFor(t, 5*time.Second, "packet for the tunnel address at the client", func() bool { return got.Load() == 1 })

	if err := c.CloseTunnel("amsix"); err != nil {
		t.Fatal(err)
	}
	r := pop.Router
	waitFor(t, 5*time.Second, "the closed tunnel's address to be refused as unroutable", func() bool {
		before := r.DroppedNoRoute.Load()
		start := time.Now()
		send()
		if held := time.Since(start); held > 500*time.Millisecond {
			t.Fatalf("a packet for the closed tunnel's address held the forwarder for %v", held)
		}
		return r.DroppedNoRoute.Load() == before+1
	})
	if r.DroppedNoMAC.Load() != 0 {
		t.Errorf("no-mac drops = %d, want 0", r.DroppedNoMAC.Load())
	}
}

func TestPingViaChosenNeighbor(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) == 2 })

	// Echo probes return because the stand-in neighbor edge answers for
	// any destination and routes replies back to the tunnel address.
	dst := probe.Addr().Next()
	if _, err := c.Ping("amsix", 1, dst, 7, 1, 5*time.Second); err != nil {
		t.Fatalf("ping via transit: %v", err)
	}
	if _, err := c.Ping("amsix", 2, dst, 7, 2, 5*time.Second); err != nil {
		t.Fatalf("ping via peer: %v", err)
	}
	if _, err := c.Ping("amsix", 0, dst, 7, 3, 5*time.Second); err != nil {
		t.Fatalf("ping via best: %v", err)
	}
}
