package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/ethernet"
)

func mac(b byte) ethernet.MAC { return ethernet.MAC{0x02, 0, 0, 0, 0, b} }

func p(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func a(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestSegmentUnicastDelivery(t *testing.T) {
	seg := NewSegment("lan")
	var got []string
	var mu sync.Mutex
	mk := func(name string, m ethernet.MAC) *Interface {
		ifc := NewInterface(name, m)
		ifc.SetHandler(func(_ *Interface, f *ethernet.Frame) {
			mu.Lock()
			got = append(got, name)
			mu.Unlock()
		})
		ifc.Attach(seg)
		return ifc
	}
	ia := mk("a", mac(1))
	mk("b", mac(2))
	mk("c", mac(3))

	ia.Send(&ethernet.Frame{Dst: mac(2), Type: ethernet.TypeIPv4, Payload: []byte{1}})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "b" {
		t.Errorf("unicast delivered to %v, want [b]", got)
	}
}

func TestSegmentBroadcastFloods(t *testing.T) {
	seg := NewSegment("lan")
	var mu sync.Mutex
	count := map[string]int{}
	mk := func(name string, m ethernet.MAC) *Interface {
		ifc := NewInterface(name, m)
		ifc.SetHandler(func(_ *Interface, f *ethernet.Frame) {
			mu.Lock()
			count[name]++
			mu.Unlock()
		})
		ifc.Attach(seg)
		return ifc
	}
	ia := mk("a", mac(1))
	mk("b", mac(2))
	mk("c", mac(3))

	ia.Send(&ethernet.Frame{Dst: ethernet.Broadcast, Type: ethernet.TypeIPv4})
	mu.Lock()
	defer mu.Unlock()
	if count["a"] != 0 || count["b"] != 1 || count["c"] != 1 {
		t.Errorf("broadcast counts = %v", count)
	}
}

func TestInterfaceExtraMAC(t *testing.T) {
	seg := NewSegment("lan")
	var hit int
	rx := NewInterface("rx", mac(1))
	rx.SetHandler(func(_ *Interface, _ *ethernet.Frame) { hit++ })
	rx.Attach(seg)
	tx := NewInterface("tx", mac(2))
	tx.Attach(seg)

	neighborMAC := mac(0x42)
	tx.Send(&ethernet.Frame{Dst: neighborMAC, Type: ethernet.TypeIPv4})
	if hit != 0 {
		t.Fatal("frame for unowned MAC delivered")
	}
	rx.AddMAC(neighborMAC)
	tx.Send(&ethernet.Frame{Dst: neighborMAC, Type: ethernet.TypeIPv4})
	if hit != 1 {
		t.Fatal("frame for extra MAC not delivered")
	}
	rx.setMAC(neighborMAC, false)
	tx.Send(&ethernet.Frame{Dst: neighborMAC, Type: ethernet.TypeIPv4})
	if hit != 1 {
		t.Fatal("frame delivered after removing the MAC")
	}
}

func TestIngressFilterDrop(t *testing.T) {
	seg := NewSegment("lan")
	var hit int
	rx := NewInterface("rx", mac(1))
	rx.SetHandler(func(_ *Interface, _ *ethernet.Frame) { hit++ })
	rx.AddIngressFilter(FilterFunc(func(data []byte) Verdict {
		var f ethernet.Frame
		if f.DecodeFromBytes(data) == nil && f.Type == ethernet.TypeIPv4 {
			return VerdictDrop
		}
		return VerdictPass
	}))
	rx.Attach(seg)
	tx := NewInterface("tx", mac(2))
	tx.Attach(seg)

	tx.Send(&ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv4})
	tx.Send(&ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv6})
	if hit != 1 {
		t.Errorf("handler hits = %d, want 1 (IPv4 dropped)", hit)
	}
	if rx.RxDrops.Load() != 1 {
		t.Errorf("RxDrops = %d, want 1", rx.RxDrops.Load())
	}
}

func TestEgressFilterDrop(t *testing.T) {
	seg := NewSegment("lan")
	var hit int
	rx := NewInterface("rx", mac(1))
	rx.SetHandler(func(_ *Interface, _ *ethernet.Frame) { hit++ })
	rx.Attach(seg)
	tx := NewInterface("tx", mac(2))
	tx.AddEgressFilter(FilterFunc(func([]byte) Verdict { return VerdictDrop }))
	tx.Attach(seg)

	tx.Send(&ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv4})
	if hit != 0 || tx.TxDrops.Load() != 1 {
		t.Errorf("egress drop failed: hits=%d drops=%d", hit, tx.TxDrops.Load())
	}
}

func TestARPOwnAddress(t *testing.T) {
	seg := NewSegment("lan")
	responderIfc := NewInterface("r", mac(9))
	responderIfc.AddAddr(a("10.0.0.1"))
	responderIfc.Attach(seg)

	h := NewHost("client")
	ifc := h.AddInterface("eth0", mac(1), p("10.0.0.2/24"), seg)
	got, err := h.Resolve(ifc, a("10.0.0.1"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != mac(9) {
		t.Errorf("resolved %v, want %v", got, mac(9))
	}
}

func TestARPProxyResponder(t *testing.T) {
	// Mirrors Fig. 2b: the vBGP router answers for next-hop IPs it
	// allocated, each with a distinct MAC.
	seg := NewSegment("lan")
	vbgp := NewInterface("vbgp", mac(9))
	vbgp.SetARPResponder(func(target netip.Addr) (ethernet.MAC, bool) {
		if target == a("127.65.0.2") {
			return mac(0x22), true
		}
		return ethernet.MAC{}, false
	})
	vbgp.Attach(seg)

	h := NewHost("exp")
	ifc := h.AddInterface("tap0", mac(1), p("100.65.0.1/24"), seg)

	got, err := h.Resolve(ifc, a("127.65.0.2"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != mac(0x22) {
		t.Errorf("proxy ARP answered %v, want %v", got, mac(0x22))
	}
	if _, err := h.Resolve(ifc, a("127.65.0.3"), 50*time.Millisecond); err == nil {
		t.Error("unclaimed address should not resolve")
	}
}

func TestARPTimeoutLeavesNoWaiter(t *testing.T) {
	seg := NewSegment("lan")
	ifc := NewInterface("eth0", mac(1))
	ifc.Attach(seg)
	for i := 0; i < 3; i++ {
		if _, err := ifc.Resolve(a("10.0.0.1"), a("10.0.0.9"), 10*time.Millisecond); err == nil {
			t.Fatal("unanswered ARP resolved")
		}
	}
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	waiters := 0
	for _, w := range ifc.arpWait {
		waiters += len(w)
	}
	if waiters != 0 || len(ifc.arpWait) != 0 {
		t.Errorf("%d waiters on %d targets after timed-out resolves, want none", waiters, len(ifc.arpWait))
	}
}

func TestHostPingOnLink(t *testing.T) {
	seg := NewSegment("lan")
	h1 := NewHost("h1")
	h1.AddInterface("eth0", mac(1), p("10.0.0.1/24"), seg)
	h2 := NewHost("h2")
	h2.AddInterface("eth0", mac(2), p("10.0.0.2/24"), seg)

	if _, err := h1.Ping(a("10.0.0.2"), 1, 1, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestHostPingThroughRouter(t *testing.T) {
	left, right := NewSegment("left"), NewSegment("right")
	rtr := NewHost("rtr")
	rtr.Forwarding = true
	rtr.AddInterface("l", mac(10), p("10.0.0.254/24"), left)
	rtr.AddInterface("r", mac(11), p("10.1.0.254/24"), right)

	h1 := NewHost("h1")
	i1 := h1.AddInterface("eth0", mac(1), p("10.0.0.1/24"), left)
	h1.SetDefaultRoute(a("10.0.0.254"), i1)
	h2 := NewHost("h2")
	i2 := h2.AddInterface("eth0", mac(2), p("10.1.0.1/24"), right)
	h2.SetDefaultRoute(a("10.1.0.254"), i2)

	if _, err := h1.Ping(a("10.1.0.1"), 7, 1, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTTLExceededUsesPrimaryAddress(t *testing.T) {
	left, right := NewSegment("left"), NewSegment("right")
	rtr := NewHost("rtr")
	rtr.Forwarding = true
	lif := rtr.AddInterface("l", mac(10), p("10.0.0.254/24"), left)
	// A secondary address on the ingress interface: TTL exceeded must be
	// sourced from the primary (paper §5, network controller requirement).
	lif.AddAddr(a("10.0.0.253"))
	rtr.AddInterface("r", mac(11), p("10.1.0.254/24"), right)

	h1 := NewHost("h1")
	i1 := h1.AddInterface("eth0", mac(1), p("10.0.0.1/24"), left)
	h1.SetDefaultRoute(a("10.0.0.254"), i1)

	var srcMu sync.Mutex
	var exceededSrc netip.Addr
	h1.Handle(ethernet.ProtoICMP, func(_ *Host, _ *Interface, ip *ethernet.IPv4) {
		var m ethernet.ICMP
		if m.DecodeFromBytes(ip.Payload) == nil && m.Type == ethernet.ICMPTimeExceed {
			srcMu.Lock()
			exceededSrc = ip.Src
			srcMu.Unlock()
		}
	})

	probe := ethernet.ICMP{Type: ethernet.ICMPEchoRequest, ID: 1, Seq: 1}
	err := h1.SendIP(&ethernet.IPv4{TTL: 1, Protocol: ethernet.ProtoICMP, Dst: a("10.1.0.1"), Payload: probe.Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	srcMu.Lock()
	defer srcMu.Unlock()
	if exceededSrc != a("10.0.0.254") {
		t.Errorf("time-exceeded sourced from %v, want primary 10.0.0.254", exceededSrc)
	}
}

func TestHostNoRoute(t *testing.T) {
	h := NewHost("h")
	h.AddInterface("eth0", mac(1), p("10.0.0.1/24"), NewSegment("lan"))
	err := h.SendIP(&ethernet.IPv4{TTL: 64, Dst: a("192.168.9.9")})
	if err == nil {
		t.Error("want no-route error")
	}
}

func TestLongestPrefixMatchRouting(t *testing.T) {
	segA, segB := NewSegment("a"), NewSegment("b")
	h := NewHost("h")
	ia := h.AddInterface("a", mac(1), p("10.0.0.1/24"), segA)
	ib := h.AddInterface("b", mac(2), p("10.0.1.1/24"), segB)
	h.AddRoute(p("192.168.0.0/16"), a("10.0.0.254"), ia)
	h.AddRoute(p("192.168.1.0/24"), a("10.0.1.254"), ib)

	gwB := NewHost("gwB")
	gwB.AddInterface("eth0", mac(4), p("10.0.1.254/24"), segB)
	var gotMu sync.Mutex
	var got bool
	gwB.Handle(ethernet.ProtoUDP, func(_ *Host, _ *Interface, ip *ethernet.IPv4) {
		gotMu.Lock()
		got = true
		gotMu.Unlock()
	})
	// A sniffer that also accepts gwB's MAC sees the forwarded packet.
	sniff := NewInterface("sniffer", mac(5))
	var seenMu sync.Mutex
	var seenDst netip.Addr
	sniff.AddMAC(mac(4))
	sniff.SetHandler(func(_ *Interface, f *ethernet.Frame) {
		var ip ethernet.IPv4
		if f.Type == ethernet.TypeIPv4 && ip.DecodeFromBytes(f.Payload) == nil {
			seenMu.Lock()
			seenDst = ip.Dst
			seenMu.Unlock()
		}
	})
	sniff.Attach(segB)

	err := h.SendIP(&ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Dst: a("192.168.1.5")})
	if err != nil {
		t.Fatal(err)
	}
	seenMu.Lock()
	defer seenMu.Unlock()
	if seenDst != a("192.168.1.5") {
		t.Errorf("more-specific route not used; segment B saw dst %v", seenDst)
	}
	_ = got
	gotMu.Lock()
	defer gotMu.Unlock()
}

func TestSegmentCounters(t *testing.T) {
	seg := NewSegment("lan")
	rxd := NewInterface("rx", mac(1))
	rxd.SetHandler(func(*Interface, *ethernet.Frame) {})
	rxd.Attach(seg)
	tx := NewInterface("tx", mac(2))
	tx.Attach(seg)

	fr := &ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv4, Payload: make([]byte, 100)}
	for i := 0; i < 5; i++ {
		tx.Send(fr)
	}
	if seg.Frames.Load() != 5 {
		t.Errorf("segment frames = %d, want 5", seg.Frames.Load())
	}
	if seg.Bytes.Load() != 5*(ethernet.HeaderLen+100) {
		t.Errorf("segment bytes = %d", seg.Bytes.Load())
	}
	if tx.TxFrames.Load() != 5 || rxd.RxFrames.Load() != 5 {
		t.Errorf("interface counters tx=%d rx=%d", tx.TxFrames.Load(), rxd.RxFrames.Load())
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	seg := NewSegment("lan")
	var hit int
	rx := NewInterface("rx", mac(1))
	rx.SetHandler(func(*Interface, *ethernet.Frame) { hit++ })
	rx.Attach(seg)
	tx := NewInterface("tx", mac(2))
	tx.Attach(seg)

	tx.Send(&ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv4})
	rx.Attach(nil)
	tx.Send(&ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv4})
	if hit != 1 {
		t.Errorf("hits = %d, want 1", hit)
	}
}

func TestPrimaryAddrOrdering(t *testing.T) {
	ifc := NewInterface("x", mac(1))
	if ifc.PrimaryAddr().IsValid() {
		t.Error("empty interface should have no primary")
	}
	ifc.AddAddr(a("10.0.0.1"))
	ifc.AddAddr(a("10.0.0.2"))
	if ifc.PrimaryAddr() != a("10.0.0.1") {
		t.Error("first added address should be primary")
	}
	ifc.AddAddr(a("10.0.0.2")) // duplicate: no-op
	if len(ifc.Addrs()) != 2 {
		t.Error("duplicate AddAddr changed address list")
	}
}

// Ping sends an ICMP echo request to dst and waits for the reply,
// returning the round-trip time.
func (h *Host) Ping(dst netip.Addr, id, seq uint16, timeout time.Duration) (time.Duration, error) {
	ch := make(chan *ethernet.ICMP, 1)
	key := echoKey{id, seq}
	h.echoMu.Lock()
	h.echoWait[key] = ch
	h.echoMu.Unlock()
	defer func() {
		h.echoMu.Lock()
		delete(h.echoWait, key)
		h.echoMu.Unlock()
	}()

	echo := ethernet.ICMP{Type: ethernet.ICMPEchoRequest, ID: id, Seq: seq, Data: []byte("peering-probe")}
	start := time.Now()
	err := h.SendIP(&ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoICMP, Dst: dst, Payload: echo.Marshal()})
	if err != nil {
		return 0, err
	}
	select {
	case <-ch:
		return time.Since(start), nil
	case <-time.After(timeout):
		return 0, fmt.Errorf("netsim: ping %s timed out", dst)
	}
}
