package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ethernet"
)

// modelPort is the reference the port table is held to: what a port
// accepts, decided the way Segment.transmit used to — by asking every
// port in turn.
type modelPort struct {
	ifc      *Interface
	attached bool
	extra    map[ethernet.MAC]bool
	got      atomic.Int64
}

func (m *modelPort) accepts(dst ethernet.MAC) bool {
	return m.attached && (dst.IsMulticast() || dst == m.ifc.MAC() || m.extra[dst])
}

// TestPortTableDeliveryMatchesPerPortScan walks attach / detach / AddMAC /
// MAC-removal sequences and, after every step, sends one frame to each
// interesting destination from each attached port: every port must
// receive exactly the frames the per-port scan would have given it, once
// each.
func TestPortTableDeliveryMatchesPerPortScan(t *testing.T) {
	shared, group := mac(0x42), ethernet.MAC{0x01, 0x00, 0x5e, 0, 0, 1}
	type step struct {
		name string
		do   func(ports []*modelPort, seg *Segment)
	}
	attach := func(i int) step {
		return step{fmt.Sprintf("attach %d", i), func(p []*modelPort, seg *Segment) { p[i].ifc.Attach(seg); p[i].attached = true }}
	}
	detach := func(i int) step {
		return step{fmt.Sprintf("detach %d", i), func(p []*modelPort, _ *Segment) { p[i].ifc.Attach(nil); p[i].attached = false }}
	}
	addMAC := func(i int, m ethernet.MAC) step {
		return step{fmt.Sprintf("AddMAC %d %s", i, m), func(p []*modelPort, _ *Segment) { p[i].ifc.AddMAC(m); p[i].extra[m] = true }}
	}
	removeMAC := func(i int, m ethernet.MAC) step {
		return step{fmt.Sprintf("RemoveMAC %d %s", i, m), func(p []*modelPort, _ *Segment) { p[i].ifc.setMAC(m, false); delete(p[i].extra, m) }}
	}
	steps := []step{
		attach(0), attach(1), attach(2),
		addMAC(1, shared),
		addMAC(2, shared),    // two owners of one MAC
		removeMAC(1, shared), // back to an owner of its primary MAC only
		addMAC(3, shared),    // detached: takes effect on attach
		attach(3),
		detach(2),
		removeMAC(2, shared), // detached: remembered
		attach(2),
		detach(3),                               // an owner of the shared MAC leaves
		addMAC(0, mac(0)), removeMAC(0, mac(0)), // its own primary MAC, listed and unlisted
		detach(0), detach(1), detach(2),
	}

	seg := NewSegment("lan")
	ports := make([]*modelPort, 4)
	for i := range ports {
		m := &modelPort{ifc: NewInterface(fmt.Sprintf("p%d", i), mac(byte(i))), extra: map[ethernet.MAC]bool{}}
		m.ifc.SetHandler(func(*Interface, *ethernet.Frame) { m.got.Add(1) })
		ports[i] = m
	}
	dests := []ethernet.MAC{mac(0), mac(1), mac(2), mac(3), shared, mac(0x99), ethernet.Broadcast, group}
	for _, st := range steps {
		st.do(ports, seg)
		for _, src := range ports {
			for _, dst := range dests {
				for _, p := range ports {
					p.got.Store(0)
				}
				src.ifc.Send(&ethernet.Frame{Dst: dst, Type: ethernet.TypeIPv4, Payload: []byte{1}})
				for i, p := range ports {
					want := int64(0)
					if src.attached && p != src && p.accepts(dst) {
						want = 1
					}
					if got := p.got.Load(); got != want {
						t.Fatalf("after %q: frame %s → %s reached port %d %d times, want %d",
							st.name, src.ifc.Name, dst, i, got, want)
					}
				}
			}
		}
		var attached int
		for _, p := range ports {
			if p.attached {
				attached++
			}
		}
		if got := len(seg.table.Load().ports); got != attached {
			t.Fatalf("after %q: segment lists %d ports, want %d", st.name, got, attached)
		}
	}
	if tbl := seg.table.Load(); len(tbl.ports)+len(tbl.owners) != 0 {
		t.Errorf("empty segment still indexes %d ports, %d MACs", len(tbl.ports), len(tbl.owners))
	}
}

// TestSendDuringPortChurn sends from several goroutines while others
// attach and detach ports, move MACs between them and add and clear
// filters. A port that sits still must receive every frame addressed to it,
// exactly once; the race detector checks the rest.
func TestSendDuringPortChurn(t *testing.T) {
	const senders, perSender = 4, 2000
	seg := NewSegment("lan")
	var stable atomic.Int64
	rx := NewInterface("stable", mac(1))
	rx.SetHandler(func(_ *Interface, fr *ethernet.Frame) {
		if fr.Dst == mac(1) && fr.Type == ethernet.TypeIPv4 {
			stable.Add(1)
		}
	})
	rx.Attach(seg)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for c := 0; c < 3; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			p := NewInterface(fmt.Sprintf("churn%d", c), mac(byte(0x10+c)))
			p.SetHandler(func(*Interface, *ethernet.Frame) {})
			floating := mac(0x42) // claimed by every churning port in turn
			for i := 0; ; i++ {
				select {
				case <-stop:
					p.Attach(nil)
					return
				default:
				}
				p.Attach(seg)
				p.AddMAC(floating)
				p.AddIngressFilter(FilterFunc(func([]byte) Verdict { return VerdictPass }))
				p.Send(&ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv6}) // not counted: wrong type
				p.setMAC(floating, false)
				p.ClearFilters()
				p.Attach(nil)
			}
		}(c)
	}

	var send sync.WaitGroup
	for s := 0; s < senders; s++ {
		send.Add(1)
		go func(s int) {
			defer send.Done()
			tx := NewInterface(fmt.Sprintf("tx%d", s), mac(byte(0x20+s)))
			tx.Attach(seg)
			for i := 0; i < perSender; i++ {
				tx.Send(&ethernet.Frame{Dst: mac(1), Type: ethernet.TypeIPv4, Payload: []byte{byte(i)}})
				tx.Send(&ethernet.Frame{Dst: mac(0x42), Type: ethernet.TypeIPv4})
				tx.Send(&ethernet.Frame{Dst: ethernet.Broadcast, Type: ethernet.TypeIPv4})
			}
		}(s)
	}
	send.Wait()
	close(stop)
	churn.Wait()

	// Each sender's unicast frames; its broadcasts carry another Dst, the
	// churning ports' frames another type.
	if got := stable.Load(); got != senders*perSender {
		t.Errorf("the stable port received %d unicast frames, want %d", got, senders*perSender)
	}
	if n := len(seg.table.Load().ports); n != 1+senders {
		t.Errorf("%d ports attached after the churn, want %d", n, 1+senders)
	}
}

// TestRawHandlerAndSendRaw: a raw port receives the bytes that were sent
// and can pass them on as they are; ARP for its own address is still
// answered by the interface.
func TestRawHandlerAndSendRaw(t *testing.T) {
	left, right := NewSegment("left"), NewSegment("right")
	out := NewInterface("out", mac(3))
	out.Attach(right)
	tap := NewInterface("tap", mac(2))
	tap.AddAddr(a("10.0.0.2"))
	tap.SetRawHandler(func(_ *Interface, data []byte) { out.SendRaw(data) })
	tap.Attach(left)
	var got []byte
	sink := NewInterface("sink", mac(4))
	sink.AddMAC(mac(2))
	sink.SetRawHandler(func(_ *Interface, data []byte) { got = append([]byte(nil), data...) })
	sink.Attach(right)

	h := NewHost("h")
	ifc := h.AddInterface("eth0", mac(1), p("10.0.0.1/24"), left)
	if m, err := h.Resolve(ifc, a("10.0.0.2"), time.Second); err != nil || m != mac(2) {
		t.Fatalf("ARP for the raw port's address: %v, %v", m, err)
	}
	if got != nil {
		t.Fatalf("the ARP request the port answered itself reached its handler: % x", got)
	}
	fr := ethernet.Frame{Dst: mac(2), Src: mac(1), Type: ethernet.TypeIPv4, Payload: []byte("as sent")}
	ifc.Send(&fr)
	if want := fr.Marshal(); string(got) != string(want) {
		t.Errorf("relayed bytes % x, want % x", got, want)
	}
	before := out.TxFrames.Load()
	out.SendRaw([]byte{1, 2, 3})
	if out.TxFrames.Load() != before {
		t.Error("a frame shorter than an Ethernet header was transmitted")
	}
}

// ClearFilters removes all ingress and egress filters.
func (ifc *Interface) ClearFilters() {
	ifc.update(func(st *ifcState) { st.ingress, st.egress = nil, nil })
}
