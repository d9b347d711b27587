package netsim

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ethernet"
)

// Handler receives a decoded frame from an interface. The frame and the
// buffer its payload aliases are the sender's, shared with every other
// receiver of a flooded frame, and reused once the handler returns:
// handlers must not write either, and one that retains the frame must
// use Frame.Clone.
type Handler func(ifc *Interface, frame *ethernet.Frame)

// RawHandler receives a frame as the bytes on the wire, for ports that
// only move them elsewhere (a tunnel tap). Ownership is as
// for Handler: no writing, no retaining past the call.
type RawHandler func(ifc *Interface, data []byte)

// ARPResponder decides whether the interface answers an ARP request for
// target, and with which MAC. vBGP installs a responder that answers for
// every per-neighbor next-hop IP it allocated (paper §3.2.2).
type ARPResponder func(target netip.Addr) (ethernet.MAC, bool)

// Interface is a network interface attached to at most one segment. It
// owns a primary MAC, optionally additional MACs (vBGP accepts frames
// addressed to any MAC it assigned to a neighbor), and a set of IP
// addresses of which the first is primary.
//
// The primary address matters: Linux uses it as the source of ICMP errors
// (paper §5).
type Interface struct {
	// Name identifies the interface, e.g. "amsix0" or "exp1-tap".
	Name string

	mac ethernet.MAC

	// mu serializes the writers of state and guards what only they and
	// the ARP miss path touch. It is held across the calls that update
	// the segment's port table, so attachment and the accepted MACs
	// change atomically with respect to each other.
	mu        sync.Mutex
	extraMACs map[ethernet.MAC]bool
	arpWait   map[netip.Addr][]chan ethernet.MAC

	// state is everything sending and receiving a frame reads.
	state atomic.Pointer[ifcState]

	// RxFrames/TxFrames/RxDrops count traffic through the interface.
	// RxDrops counts frames discarded by ingress filters.
	RxFrames atomic.Uint64
	TxFrames atomic.Uint64
	RxDrops  atomic.Uint64
	TxDrops  atomic.Uint64
}

// ifcState is an interface's per-packet configuration: immutable once
// published, replaced copy-on-write under Interface.mu.
type ifcState struct {
	seg        *Segment
	addrs      []netip.Addr // addrs[0] is the primary address
	handler    Handler
	rawHandler RawHandler
	responder  ARPResponder
	ingress    []Filter
	egress     []Filter
	arp        map[netip.Addr]ethernet.MAC
}

// NewInterface creates a detached interface with the given MAC.
func NewInterface(name string, mac ethernet.MAC) *Interface {
	ifc := &Interface{
		Name: name, mac: mac,
		extraMACs: make(map[ethernet.MAC]bool),
		arpWait:   make(map[netip.Addr][]chan ethernet.MAC),
	}
	ifc.state.Store(&ifcState{arp: map[netip.Addr]ethernet.MAC{}})
	return ifc
}

// update publishes a modified copy of the interface's state. change gets
// a shallow copy and must replace, not write into, the slices and maps it
// alters.
func (ifc *Interface) update(change func(st *ifcState)) {
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	next := *ifc.state.Load()
	change(&next)
	ifc.state.Store(&next)
}

// MAC returns the interface's primary MAC address.
func (ifc *Interface) MAC() ethernet.MAC { return ifc.mac }

// macsLocked returns every MAC the interface accepts; mu must be held.
func (ifc *Interface) macsLocked() []ethernet.MAC {
	macs := make([]ethernet.MAC, 0, 1+len(ifc.extraMACs))
	macs = append(macs, ifc.mac)
	for m := range ifc.extraMACs {
		macs = append(macs, m)
	}
	return macs
}

// Attach connects the interface to a segment, detaching it from any
// previous segment.
func (ifc *Interface) Attach(seg *Segment) {
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	next := *ifc.state.Load()
	old := next.seg
	next.seg = seg
	ifc.state.Store(&next)
	macs := ifc.macsLocked()
	if old != nil {
		old.detach(ifc, macs)
	}
	if seg != nil {
		seg.attach(ifc, macs)
	}
}

// SetHandler installs the receive handler.
func (ifc *Interface) SetHandler(h Handler) {
	ifc.update(func(st *ifcState) { st.handler = h })
}

// SetRawHandler installs a receive handler taking the frame's wire bytes;
// it replaces the decoded-frame Handler for everything but the ARP
// traffic the interface answers itself.
func (ifc *Interface) SetRawHandler(h RawHandler) {
	ifc.update(func(st *ifcState) { st.rawHandler = h })
}

// SetARPResponder installs a proxy-ARP responder consulted for requests
// whose target is not one of the interface's own addresses.
func (ifc *Interface) SetARPResponder(r ARPResponder) {
	ifc.update(func(st *ifcState) { st.responder = r })
}

// AddIngressFilter appends a filter run on every received frame before the
// handler. If any filter returns VerdictDrop the frame is discarded, as
// with an XDP program returning XDP_DROP.
func (ifc *Interface) AddIngressFilter(f Filter) {
	ifc.update(func(st *ifcState) { st.ingress = append(slices.Clip(st.ingress), f) })
}

// AddEgressFilter appends a filter run on every transmitted frame.
func (ifc *Interface) AddEgressFilter(f Filter) {
	ifc.update(func(st *ifcState) { st.egress = append(slices.Clip(st.egress), f) })
}

// AddMAC makes the interface additionally accept frames destined to mac.
func (ifc *Interface) AddMAC(mac ethernet.MAC) { ifc.setMAC(mac, true) }

func (ifc *Interface) setMAC(mac ethernet.MAC, add bool) {
	ifc.mu.Lock()
	defer ifc.mu.Unlock()
	if ifc.extraMACs[mac] == add {
		return
	}
	if add {
		ifc.extraMACs[mac] = true
	} else {
		delete(ifc.extraMACs, mac)
	}
	// The primary MAC is accepted whether or not it is also listed.
	if seg := ifc.state.Load().seg; seg != nil && mac != ifc.mac {
		seg.setMAC(ifc, mac, add)
	}
}

// AddAddr adds an IP address to the interface. The first address added is
// the primary address.
func (ifc *Interface) AddAddr(a netip.Addr) {
	ifc.update(func(st *ifcState) {
		if !slices.Contains(st.addrs, a) {
			st.addrs = append(slices.Clip(st.addrs), a)
		}
	})
}

// Addrs returns the interface's addresses in order; index 0 is primary.
func (ifc *Interface) Addrs() []netip.Addr {
	return append([]netip.Addr(nil), ifc.state.Load().addrs...)
}

// PrimaryAddr returns the primary address, or the zero Addr if none.
func (ifc *Interface) PrimaryAddr() netip.Addr {
	if addrs := ifc.state.Load().addrs; len(addrs) > 0 {
		return addrs[0]
	}
	return netip.Addr{}
}

// HasAddr reports whether a is one of the interface's addresses.
func (ifc *Interface) HasAddr(a netip.Addr) bool {
	return slices.Contains(ifc.state.Load().addrs, a)
}

// Send stamps the interface MAC as source if the frame has a zero source,
// serializes the frame into a pooled buffer, and transmits that with
// SendRaw; the buffer returns to the pool once every receiver's handler
// has.
func (ifc *Interface) Send(frame *ethernet.Frame) {
	if frame.Src.IsZero() {
		frame.Src = ifc.mac
	}
	buf := ethernet.GetBuffer()
	buf.B = frame.AppendTo(buf.B)
	ifc.SendRaw(buf.B)
	buf.Release()
}

// SendRaw transmits a frame the caller already holds as wire bytes: it
// runs the egress filters and delivers the frame on the attached segment,
// synchronously. Nothing on the way writes or retains data, so the caller
// may reuse it — or, having received it, pass it on — as soon as SendRaw
// returns. It is a no-op if the interface is detached or data is shorter
// than an Ethernet header.
func (ifc *Interface) SendRaw(data []byte) {
	st := ifc.state.Load()
	if st.seg == nil || len(data) < ethernet.HeaderLen {
		return
	}
	for _, f := range st.egress {
		if f.Process(data) == VerdictDrop {
			ifc.TxDrops.Add(1)
			return
		}
	}
	ifc.TxFrames.Add(1)
	st.seg.transmit(ifc, data)
}

// rxFrames recycles the Frame a delivery decodes into: handing a frame
// to a handler (a func value) would otherwise move it to the heap once
// per received frame.
var rxFrames ethernet.FreeList[ethernet.Frame]

// deliver is called by the segment with a serialized frame addressed to
// this interface (or broadcast). It runs ingress filters, answers ARP
// requests, and hands other frames to the handler.
func (ifc *Interface) deliver(data []byte) {
	st := ifc.state.Load()
	for _, f := range st.ingress {
		if f.Process(data) == VerdictDrop {
			ifc.RxDrops.Add(1)
			return
		}
	}
	ifc.RxFrames.Add(1)

	frame := rxFrames.Get()
	if frame == nil {
		frame = new(ethernet.Frame)
	}
	_ = frame.DecodeFromBytes(data) // SendRaw admits nothing shorter than a header
	if frame.Type != ethernet.TypeARP || !ifc.handleARP(st, frame) {
		switch {
		case st.rawHandler != nil:
			st.rawHandler(ifc, data)
		case st.handler != nil:
			st.handler(ifc, frame)
		}
	}
	frame.Payload = nil
	rxFrames.Put(frame)
}

// Resolve returns the MAC for the on-link address target, consulting the
// interface ARP cache — a hit takes no lock — and, on a miss, sending an
// ARP request and waiting up to timeout for a reply. senderIP is the
// source protocol address to put in the request (typically the
// interface's primary address).
func (ifc *Interface) Resolve(senderIP, target netip.Addr, timeout time.Duration) (ethernet.MAC, error) {
	if mac, ok := ifc.state.Load().arp[target]; ok {
		return mac, nil
	}
	ifc.mu.Lock()
	if mac, ok := ifc.state.Load().arp[target]; ok { // learned since the first look
		ifc.mu.Unlock()
		return mac, nil
	}
	ch := make(chan ethernet.MAC, 1)
	ifc.arpWait[target] = append(ifc.arpWait[target], ch)
	ifc.mu.Unlock()

	req := ethernet.NewARPRequest(ifc.mac, senderIP, target)
	fr := req.Frame(ifc.mac)
	ifc.Send(&fr)

	select {
	case mac := <-ch:
		return mac, nil
	case <-time.After(timeout):
		ifc.mu.Lock()
		waiters := slices.DeleteFunc(ifc.arpWait[target], func(w chan ethernet.MAC) bool { return w == ch })
		if len(waiters) > 0 {
			ifc.arpWait[target] = waiters
		} else {
			delete(ifc.arpWait, target)
		}
		ifc.mu.Unlock()
		return ethernet.MAC{}, fmt.Errorf("netsim: ARP for %s on %s timed out", target, ifc.Name)
	}
}

// learnARP records a sender's binding — republishing the cache only when
// the binding is new or changed — and wakes Resolve waiters.
func (ifc *Interface) learnARP(addr netip.Addr, mac ethernet.MAC) {
	ifc.mu.Lock()
	st := ifc.state.Load()
	if cur, ok := st.arp[addr]; !ok || cur != mac {
		next := *st
		next.arp = maps.Clone(st.arp)
		next.arp[addr] = mac
		ifc.state.Store(&next)
	}
	waiters := ifc.arpWait[addr]
	delete(ifc.arpWait, addr)
	ifc.mu.Unlock()
	for _, ch := range waiters {
		ch <- mac
	}
}

// handleARP answers ARP requests for the interface's own addresses and for
// any address its ARPResponder claims, and learns bindings from replies.
// It returns true if the frame was consumed.
func (ifc *Interface) handleARP(st *ifcState, frame *ethernet.Frame) bool {
	var req ethernet.ARP
	if err := req.DecodeFromBytes(frame.Payload); err != nil {
		return true // malformed ARP: consume silently
	}
	if req.Op == ethernet.ARPReply {
		ifc.learnARP(req.SenderIP, req.SenderMAC)
		return false // also surface replies to the handler
	}
	if req.Op != ethernet.ARPRequest {
		return false
	}
	answer, ok := ifc.mac, slices.Contains(st.addrs, req.TargetIP)
	if !ok && st.responder != nil {
		answer, ok = st.responder(req.TargetIP)
	}
	if !ok {
		// Not ours: surface to the handler so bridges can relay the
		// request toward whoever owns the address.
		return false
	}
	rep := req.Reply(answer)
	fr := rep.Frame(ifc.mac)
	ifc.Send(&fr)
	return true
}

// String implements fmt.Stringer.
func (ifc *Interface) String() string {
	addrs := ifc.Addrs()
	strs := make([]string, len(addrs))
	for i, a := range addrs {
		strs[i] = a.String()
	}
	sort.Strings(strs[1:]) // keep primary first, order the rest for stability
	return fmt.Sprintf("%s(%s %v)", ifc.Name, ifc.mac, strs)
}
