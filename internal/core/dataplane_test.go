package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// dropsByReason reads core_dataplane_drops_total{pop,reason} for one PoP.
func dropsByReason(pop string) map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range telemetry.Default().Snapshot() {
		if s.Name != "core_dataplane_drops_total" {
			continue
		}
		var p, reason string
		for _, l := range s.Labels {
			switch l.Key {
			case "pop":
				p = l.Value
			case "reason":
				reason = l.Value
			}
		}
		if p == pop {
			out[reason] = uint64(s.Value)
		}
	}
	return out
}

// capture is a port recording the wire bytes of the frames addressed to
// macs. It attaches after their owners, so it is delivered to last.
type capture struct {
	mu     sync.Mutex
	frames [][]byte
}

func newCapture(seg *netsim.Segment, name string, macs ...ethernet.MAC) *capture {
	c := &capture{}
	ifc := netsim.NewInterface(name, ethernet.MAC{0x02, 0xca, 0, 0, 0, 1})
	for _, m := range macs {
		ifc.AddMAC(m)
	}
	ifc.SetRawHandler(func(_ *netsim.Interface, data []byte) {
		c.mu.Lock()
		c.frames = append(c.frames, append([]byte(nil), data...))
		c.mu.Unlock()
	})
	ifc.Attach(seg)
	return c
}

// ipv4 returns the IPv4 frames captured so far.
func (c *capture) ipv4() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	for _, f := range c.frames {
		if len(f) >= ethernet.HeaderLen && f[12] == 0x08 && f[13] == 0x00 {
			out = append(out, f)
		}
	}
	return out
}

// optionsPacket is an IPv4 datagram whose header carries 8 bytes of
// options (IHL 7) — which the struct codec cannot produce.
func optionsPacket(ttl uint8, src, dst netip.Addr, payload []byte) []byte {
	const ihl = 28
	b := make([]byte, ihl, ihl+len(payload))
	b[0], b[1] = 0x47, 0x10
	binary.BigEndian.PutUint16(b[2:4], uint16(ihl+len(payload)))
	binary.BigEndian.PutUint16(b[4:6], 0xbeef)
	b[8], b[9] = ttl, ethernet.ProtoUDP
	s, d := src.As4(), dst.As4()
	copy(b[12:16], s[:])
	copy(b[16:20], d[:])
	copy(b[20:28], []byte{0x07, 0x07, 0x04, 0, 0, 0, 0, 0x00}) // record route, one empty slot, end of list
	binary.BigEndian.PutUint16(b[10:12], ethernet.Checksum(b))
	return append(b, payload...)
}

// expHost attaches a plain host to the experiment LAN and resolves
// neighbor n's per-neighbor MAC the way an experiment router would.
func (f *fig1) expHost(t *testing.T, n *Neighbor) (*netsim.Interface, ethernet.MAC) {
	t.Helper()
	x1 := netsim.NewHost("X1")
	ifc := x1.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)
	mac, err := x1.Resolve(ifc, n.LocalIP, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return ifc, mac
}

// TestForwardPreservesIPv4Options: a packet with IHL > 5 leaves the router
// byte-identical except for TTL and header checksum. (The decode →
// re-marshal forwarder dropped the options and shortened the packet.)
func TestForwardPreservesIPv4Options(t *testing.T) {
	f := newFig1(t)
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "route", func() bool { return f.nbr2.Table.PathCount() == 1 })
	x1ifc, mac := f.expHost(t, f.nbr2)
	sniff := newCapture(f.nbrLAN, "sniff", f.n2Ifc.MAC())

	pkt := optionsPacket(64, ip("10.1.0.1"), ip("192.168.0.1"), []byte("options ride along"))
	// Two bytes of link-layer padding after the datagram must not travel.
	x1ifc.Send(&ethernet.Frame{Dst: mac, Type: ethernet.TypeIPv4, Payload: append(append([]byte(nil), pkt...), 0, 0)})
	waitFor(t, 5*time.Second, "forwarded frame on the neighbor LAN", func() bool { return len(sniff.ipv4()) == 1 })

	got := sniff.ipv4()[0][ethernet.HeaderLen:]
	want := append([]byte(nil), pkt...)
	want[8] = 63
	want[10], want[11] = 0, 0
	binary.BigEndian.PutUint16(want[10:12], ethernet.Checksum(want[:28]))
	if !bytes.Equal(got, want) {
		t.Errorf("forwarded packet\n got % x\nwant % x", got, want)
	}
	var dec ethernet.IPv4
	if err := dec.DecodeFromBytes(got); err != nil {
		t.Errorf("forwarded header does not verify: %v", err)
	}
}

// TestDataPlaneDropsCountedByReason: every frame addressed to the
// forwarder that it refuses is counted under one reason of the closed
// set; ARP and frames flooded past the router are not drops.
func TestDataPlaneDropsCountedByReason(t *testing.T) {
	f := newFig1With(t, func(c *Config) { c.Name = "e1-drops" })
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "route", func() bool { return f.nbr2.Table.PathCount() == 1 })
	x1ifc, mac := f.expHost(t, f.nbr2)
	rtrMAC := f.router.Interface("exp0").MAC()
	base := dropsByReason("e1-drops")
	if len(base) != int(numDropReasons) {
		t.Fatalf("drop series registered for the PoP: %v, want the %d reasons", base, numDropReasons)
	}

	good := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: ip("10.1.0.1"), Dst: ip("192.168.0.1")}
	send := func(dst ethernet.MAC, typ ethernet.EtherType, payload []byte) {
		x1ifc.Send(&ethernet.Frame{Dst: dst, Type: typ, Payload: payload})
	}
	corrupt := good.Marshal()
	corrupt[8]-- // TTL changed, checksum not
	v6 := (&ethernet.IPv6{HopLimit: 64, NextHeader: ethernet.ProtoUDP,
		Src: ip("2804:269c::1"), Dst: ip("2001:db8::1")}).Marshal()
	expired := good
	expired.TTL = 1
	unrouted := good
	unrouted.Dst = ip("203.0.113.1")

	send(mac, ethernet.TypeIPv4, corrupt)               // malformed
	send(mac, ethernet.TypeIPv4, good.Marshal()[:12])   // malformed: truncated
	send(mac, ethernet.TypeIPv6, v6)                    // unsupported-ethertype, table-select MAC
	send(rtrMAC, ethernet.TypeIPv6, v6)                 // unsupported-ethertype, router's MAC
	send(mac, ethernet.TypeIPv4, expired.Marshal())     // ttl-expired
	send(mac, ethernet.TypeIPv4, unrouted.Marshal())    // no-route (neighbor table)
	send(rtrMAC, ethernet.TypeIPv4, unrouted.Marshal()) // no-route (no experiment owns it)
	// Not drops: a broadcast the router merely overhears, and ARP.
	send(ethernet.Broadcast, ethernet.TypeIPv6, v6)
	send(ethernet.Broadcast, ethernet.TypeIPv4, corrupt)
	arp := ethernet.NewARPRequest(x1ifc.MAC(), ip("100.65.0.1"), ip("100.65.0.77"))
	send(ethernet.Broadcast, ethernet.TypeARP, arp.Marshal())
	send(mac, ethernet.TypeIPv4, good.Marshal()) // forwarded

	// no-route: the two unrouted packets, and the time-exceeded reply for
	// the expired one, whose sender is no experiment's address.
	want := map[string]uint64{"malformed": 2, "unsupported-ethertype": 2, "ttl-expired": 1, "no-route": 3, "no-mac": 0}
	got := dropsByReason("e1-drops")
	for reason, n := range want {
		if d := got[reason] - base[reason]; d != n {
			t.Errorf("core_dataplane_drops_total{reason=%q} moved by %d, want %d", reason, d, n)
		}
	}
	if f.router.DroppedNoRoute.Load() != 3 || f.router.TTLExpired.Load() != 1 || f.router.DroppedNoMAC.Load() != 0 {
		t.Errorf("exported counters: no-route %d, ttl-expired %d, no-mac %d; want 3, 1, 0",
			f.router.DroppedNoRoute.Load(), f.router.TTLExpired.Load(), f.router.DroppedNoMAC.Load())
	}
	if f.router.Forwarded.Load() != 1 {
		t.Errorf("forwarded = %d, want 1", f.router.Forwarded.Load())
	}
}

// TestForwardLeavesSharedBufferIntact: one frame reaches the router, which
// forwards it, and then a promiscuous capture port on the same LAN — both
// handed the sender's one buffer. The capture port, running after the
// forward, must still see the bytes that were sent: the forwarder builds
// the outgoing frame in a buffer of its own.
func TestForwardLeavesSharedBufferIntact(t *testing.T) {
	f := newFig1(t)
	f.n2.announce("192.168.0.0/24", []uint32{n2ASN}, "192.0.2.2")
	waitFor(t, 5*time.Second, "route", func() bool { return f.nbr2.Table.PathCount() == 1 })
	x1ifc, mac := f.expHost(t, f.nbr2)
	// A MAC's owners are delivered to in the order they claimed it: the
	// capture port sees each buffer once the router is done with it.
	sniffExp, sniffNbr := newCapture(f.expLAN, "sniff-exp", mac), newCapture(f.nbrLAN, "sniff-nbr", f.n2Ifc.MAC())

	for i := 0; i < 3; i++ {
		pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, ID: uint16(i),
			Src: ip("10.1.0.1"), Dst: ip("192.168.0.1"), Payload: []byte(fmt.Sprintf("shared buffer %d", i))}
		fr := ethernet.Frame{Dst: mac, Src: x1ifc.MAC(), Type: ethernet.TypeIPv4, Payload: pkt.Marshal()}
		x1ifc.Send(&fr)
		sent, fwd := sniffExp.ipv4(), sniffNbr.ipv4()
		if len(sent) != i+1 || len(fwd) != i+1 {
			t.Fatalf("captured %d frames on the experiment LAN and %d on the neighbor LAN, want %d each", len(sent), len(fwd), i+1)
		}
		if want := fr.Marshal(); !bytes.Equal(sent[i], want) {
			t.Errorf("after the router forwarded it, the capture port read\n got % x\nwant % x", sent[i], want)
		}
		if ttl := fwd[i][ethernet.HeaderLen+8]; ttl != 63 {
			t.Errorf("forwarded copy has TTL %d, want 63", ttl)
		}
	}
}

// TestForwardDuringNeighborEstablishment: two goroutines forward through
// a neighbor while its session establishes and its MAC resolves — the
// forwarders' own ARP learning and OnEstablished's resolveNeighborMAC
// meet on the neighbor's resolved MAC, which is published through the
// forwarding snapshot. Every frame is either forwarded or counted
// no-mac. Run under -race.
func TestForwardDuringNeighborEstablishment(t *testing.T) {
	nbrLAN, expLAN := netsim.NewSegment("nbr-lan"), netsim.NewSegment("exp-lan")
	r := NewRouter(Config{Name: "e1-establish", ASN: platformASN, RouterID: ip("198.51.100.1")})
	r.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), nbrLAN)
	r.AddInterface("exp0", "experiment", pfx("100.65.0.254/24"), expLAN)
	host := netsim.NewHost("N1")
	hifc := host.AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 0, 0x11}, pfx("192.0.2.1/24"), nbrLAN)
	var delivered atomic.Uint64
	hifc.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
		if fr.Type == ethernet.TypeIPv4 {
			delivered.Add(1)
		}
	})

	routerEnd, peerEnd := pipe.New()
	n, err := r.AddNeighbor(NeighborConfig{Name: "N1", ID: 1, ASN: n1ASN, Addr: ip("192.0.2.1"), Interface: "nbr0", Conn: routerEnd})
	if err != nil {
		t.Fatal(err)
	}
	// The route is there before the session is: forwarding starts first.
	n.Table.Add(&rib.Path{Prefix: pfx("192.168.0.0/24"), Peer: "N1", EBGP: true, Seq: rib.NextSeq(),
		Attrs: &bgp.PathAttrs{NextHop: ip("192.0.2.1")}})

	const senders, perSender = 2, 400
	started := make(chan struct{}, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tx := netsim.NewInterface(fmt.Sprintf("tx%d", s), ethernet.MAC{0x0a, 0xfe, 0, 0, 0, byte(s)})
			tx.Attach(expLAN)
			pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: ip("10.1.0.1"), Dst: ip("192.168.0.1")}
			fr := ethernet.Frame{Dst: n.LocalMAC, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()}
			for i := 0; i < perSender; i++ {
				if i == perSender/4 {
					started <- struct{}{}
				}
				tx.Send(&fr)
			}
		}(s)
	}
	for s := 0; s < senders; s++ {
		<-started
	}
	peer := newTestPeer(t, peerEnd, n1ASN, platformASN, "192.0.2.1", false)
	peer.waitEstablished()
	wg.Wait()

	fwd, noMAC := r.Forwarded.Load(), r.DroppedNoMAC.Load()
	if fwd+noMAC != senders*perSender {
		t.Errorf("%d forwarded + %d no-mac, want %d frames accounted for", fwd, noMAC, senders*perSender)
	}
	if delivered.Load() != fwd {
		t.Errorf("%d frames reached the neighbor, %d were counted forwarded", delivered.Load(), fwd)
	}
	waitFor(t, 5*time.Second, "the neighbor's MAC in the forwarding snapshot", func() bool {
		st := r.topo.Load()
		return st.byLocalMAC[n.LocalMAC].realMAC == hifc.MAC() && st.byRealMAC[hifc.MAC()] == n
	})
}

// TestTunnelAddressDelivery: traffic for an experiment's tunnel address is
// delivered once the address is registered — before any BGP session
// exists — and refused as unroutable the moment the registration is
// cleared, without waiting out an ARP on the departed tap.
func TestTunnelAddressDelivery(t *testing.T) {
	f := newFig1(t)
	host := netsim.NewHost("X1")
	hifc := host.AddInterface("tap0", ethernet.MAC{0x0a, 0, 0, 0, 0, 0x01}, pfx("100.65.0.1/24"), f.expLAN)
	var got atomic.Uint64
	hifc.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
		if fr.Type == ethernet.TypeIPv4 {
			got.Add(1)
		}
	})
	nbrIfc := f.n2Ifc
	rtrMAC, err := f.n2Host.Resolve(nbrIfc, ip("192.0.2.254"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: ip("192.168.0.9"), Dst: ip("100.65.0.1")}
	send := func() { nbrIfc.Send(&ethernet.Frame{Dst: rtrMAC, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()}) }

	send()
	if got.Load() != 0 || f.router.DroppedNoRoute.Load() != 1 {
		t.Fatalf("before registration: delivered %d, no-route %d; want 0, 1", got.Load(), f.router.DroppedNoRoute.Load())
	}
	f.router.SetExperimentTunnelIP("X1", ip("100.65.0.1"))
	send()
	if got.Load() != 1 {
		t.Fatalf("registered ahead of the BGP session: delivered %d, want 1", got.Load())
	}
	// A tunnel that held another address closing does not unregister this
	// one (a redial may have replaced the address under the same name).
	f.router.ClearExperimentTunnelIP("X1", ip("100.65.0.9"))
	send()
	if got.Load() != 2 {
		t.Fatalf("after clearing a stale address: delivered %d, want 2", got.Load())
	}
	hifc.Attach(nil) // the tap goes with the tunnel
	f.router.ClearExperimentTunnelIP("X1", ip("100.65.0.1"))
	start := time.Now()
	send()
	if took := time.Since(start); took > arpTimeout/4 {
		t.Errorf("a packet for a closed tunnel's address held the forwarder for %v", took)
	}
	if got.Load() != 2 || f.router.DroppedNoRoute.Load() != 2 || f.router.DroppedNoMAC.Load() != 0 {
		t.Errorf("after the tunnel closed: delivered %d, no-route %d, no-mac %d; want 2, 2, 0",
			got.Load(), f.router.DroppedNoRoute.Load(), f.router.DroppedNoMAC.Load())
	}
}

// TestTunnelAddressesPlateau: experiments that tunnel in and leave — a
// thousand different names — leave nothing behind in the forwarding
// state, which is copied on every republish.
func TestTunnelAddressesPlateau(t *testing.T) {
	r := NewRouter(Config{Name: "e1-plateau", ASN: platformASN, RouterID: ip("198.51.100.1")})
	peak := 0
	for i := 0; i < 1000; i++ {
		name, addr := fmt.Sprintf("exp-%d", i), netip.AddrFrom4([4]byte{100, 65, byte(i >> 8), byte(i)})
		r.SetExperimentTunnelIP(name, addr)
		if i%3 == 0 { // a redial: the new tunnel registers before the old one is torn down
			next := netip.AddrFrom4([4]byte{100, 66, byte(i >> 8), byte(i)})
			r.SetExperimentTunnelIP(name, next)
			r.ClearExperimentTunnelIP(name, addr)
			addr = next
		}
		peak = max(peak, len(r.topo.Load().tunnelIP))
		if i >= 8 { // a few stay connected at any time
			old := i - 8
			oldAddr := netip.AddrFrom4([4]byte{100, 65, byte(old >> 8), byte(old)})
			if old%3 == 0 {
				oldAddr = netip.AddrFrom4([4]byte{100, 66, byte(old >> 8), byte(old)})
			}
			r.ClearExperimentTunnelIP(fmt.Sprintf("exp-%d", old), oldAddr)
		}
	}
	st := r.topo.Load()
	if peak > 9 || len(st.tunnelIP) != 8 || len(st.byTunnelIP) != 8 {
		t.Errorf("after 1000 connect/disconnect cycles: peak %d entries, %d names and %d addresses left; want ≤ 9, 8, 8",
			peak, len(st.tunnelIP), len(st.byTunnelIP))
	}
}

// TestForwardingStateRepublishedOnlyOnChange: the control paths that touch
// forwarding state — registering an experiment's tunnel address, the
// find-or-create of a remote neighbor per mesh route — publish a new
// snapshot only when something changed, and announcements publish none.
func TestForwardingStateRepublishedOnlyOnChange(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)
	f.router.SetExperimentTunnelIP("X1", ip("100.65.0.1"))
	// Each neighbor's establishment publishes its resolved MAC, on the
	// router's side of the session: wait for both before taking the mark.
	waitFor(t, 5*time.Second, "the neighbors' MACs learned", func() bool {
		st := f.router.topo.Load()
		return st.byRealMAC[f.n1Ifc.MAC()] == f.nbr1 && st.byRealMAC[f.n2Ifc.MAC()] == f.nbr2
	})
	before := f.router.topo.Load()
	for i := 1; i <= 20; i++ {
		f.router.SetExperimentTunnelIP("X1", ip("100.65.0.1"))
		x1.announceV("10.1.0.0/24", bgp.PathID(i), []uint32{expASN}, "100.65.0.1")
	}
	waitFor(t, 5*time.Second, "announcements processed", func() bool { return len(f.router.ExperimentRoutes().Paths(pfx("10.1.0.0/24"))) == 20 })
	if f.router.topo.Load() != before {
		t.Error("re-registering an unchanged tunnel address or announcing republished the forwarding state")
	}

	gip := netip.MustParseAddr("127.127.0.9")
	n, err := f.router.remoteNeighbor(gip, 9, 65009)
	if err != nil {
		t.Fatal(err)
	}
	before = f.router.topo.Load()
	if before.byLocalMAC[n.LocalMAC].n != n || before.byLocalIP[n.LocalIP] != n {
		t.Fatal("remote neighbor not in the forwarding state")
	}
	for i := 0; i < 20; i++ {
		if again, _ := f.router.remoteNeighbor(gip, 9, 65009); again != n {
			t.Fatal("remote neighbor created twice")
		}
	}
	if f.router.topo.Load() != before {
		t.Error("finding an existing remote neighbor republished the forwarding state")
	}
}
