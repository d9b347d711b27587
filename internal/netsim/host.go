package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/ethernet"
)

// hostRoute is a simple routing table entry for a Host.
type hostRoute struct {
	prefix  netip.Prefix
	nextHop netip.Addr // zero Addr means on-link
	ifc     *Interface
}

// PacketHandler receives an IPv4 packet delivered to a Host.
type PacketHandler func(h *Host, ifc *Interface, ip *ethernet.IPv4)

// Host is a simple IPv4 end system: one or more interfaces, an ARP cache,
// a longest-prefix-match routing table, an ICMP echo responder, and
// TTL-exceeded generation sourced from the ingress interface's primary
// address (the behavior Peering's network controller preserves, §5).
//
// Hosts model experiment machines and neighbor-side traffic sinks in
// tests and examples; BGP speakers use their own forwarding logic.
type Host struct {
	// Name identifies the host in logs.
	Name string

	// Forwarding enables packet forwarding between interfaces (router
	// behavior with TTL decrement and time-exceeded generation).
	Forwarding bool

	// EchoAll makes the host answer ICMP echo requests addressed to ANY
	// destination, standing in for "the rest of the Internet" behind a
	// neighbor in examples and tests.
	EchoAll bool

	mu       sync.Mutex
	ifcs     []*Interface
	routes   []hostRoute
	handlers map[uint8]PacketHandler

	echoMu   sync.Mutex
	echoWait map[echoKey]chan *ethernet.ICMP
}

type echoKey struct {
	id, seq uint16
}

// NewHost creates a host with no interfaces.
func NewHost(name string) *Host {
	return &Host{
		Name:     name,
		handlers: make(map[uint8]PacketHandler),
		echoWait: make(map[echoKey]chan *ethernet.ICMP),
	}
}

// AddInterface creates an interface on the host, assigns addr (with its
// prefix installed as an on-link route), and attaches it to seg.
func (h *Host) AddInterface(name string, mac ethernet.MAC, addr netip.Prefix, seg *Segment) *Interface {
	ifc := NewInterface(name, mac)
	ifc.AddAddr(addr.Addr())
	ifc.SetHandler(h.receive)
	ifc.Attach(seg)

	h.mu.Lock()
	defer h.mu.Unlock()
	h.ifcs = append(h.ifcs, ifc)
	h.routes = append(h.routes, hostRoute{prefix: addr.Masked(), ifc: ifc})
	return ifc
}

// AddRoute installs a static route for prefix via nextHop out ifc. A zero
// nextHop means the prefix is on-link.
func (h *Host) AddRoute(prefix netip.Prefix, nextHop netip.Addr, ifc *Interface) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.routes = append(h.routes, hostRoute{prefix: prefix.Masked(), nextHop: nextHop, ifc: ifc})
}

// SetDefaultRoute installs 0.0.0.0/0 via nextHop out ifc.
func (h *Host) SetDefaultRoute(nextHop netip.Addr, ifc *Interface) {
	h.AddRoute(netip.PrefixFrom(netip.IPv4Unspecified(), 0), nextHop, ifc)
}

// Handle registers a handler for an IP protocol number. ICMP echo is
// handled internally; other ICMP types are passed to a ProtoICMP handler
// if registered.
func (h *Host) Handle(proto uint8, fn PacketHandler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handlers[proto] = fn
}

// lookup returns the longest-prefix-match route for dst.
func (h *Host) lookup(dst netip.Addr) (hostRoute, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	best, ok := hostRoute{}, false
	for _, r := range h.routes {
		if r.prefix.Contains(dst) && (!ok || r.prefix.Bits() > best.prefix.Bits()) {
			best, ok = r, true
		}
	}
	return best, ok
}

// Resolve returns the MAC address for on-link IP addr out ifc, sending an
// ARP request if needed and waiting up to the timeout for the reply.
func (h *Host) Resolve(ifc *Interface, addr netip.Addr, timeout time.Duration) (ethernet.MAC, error) {
	return ifc.Resolve(ifc.PrimaryAddr(), addr, timeout)
}

// SendIP routes and transmits an IPv4 packet. The packet's Src is filled
// from the egress interface's primary address when unset.
func (h *Host) SendIP(pkt *ethernet.IPv4) error {
	rt, ok := h.lookup(pkt.Dst)
	if !ok {
		return fmt.Errorf("netsim: %s: no route to %s", h.Name, pkt.Dst)
	}
	nh := rt.nextHop
	if !nh.IsValid() {
		nh = pkt.Dst // on-link
	}
	if !pkt.Src.IsValid() {
		pkt.Src = rt.ifc.PrimaryAddr()
	}
	mac, err := h.Resolve(rt.ifc, nh, time.Second)
	if err != nil {
		return err
	}
	rt.ifc.Send(&ethernet.Frame{
		Dst: mac, Src: rt.ifc.MAC(), Type: ethernet.TypeIPv4, Payload: pkt.Marshal(),
	})
	return nil
}

// receive is the interface handler: it learns ARP replies, delivers local
// IPv4 packets, and forwards others when Forwarding is set.
func (h *Host) receive(ifc *Interface, frame *ethernet.Frame) {
	switch frame.Type {
	case ethernet.TypeIPv4:
		var ip ethernet.IPv4
		if ip.DecodeFromBytes(frame.Payload) != nil {
			return
		}
		if h.isLocal(ip.Dst) {
			h.deliverLocal(ifc, &ip)
			return
		}
		if h.EchoAll && ip.Protocol == ethernet.ProtoICMP {
			var m ethernet.ICMP
			if m.DecodeFromBytes(ip.Payload) == nil && m.Type == ethernet.ICMPEchoRequest {
				reply := ethernet.ICMP{Type: ethernet.ICMPEchoReply, ID: m.ID, Seq: m.Seq, Data: append([]byte(nil), m.Data...)}
				_ = h.SendIP(&ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoICMP, Src: ip.Dst, Dst: ip.Src, Payload: reply.Marshal()})
				return
			}
		}
		if h.Forwarding {
			h.forward(ifc, &ip)
		}
	}
}

func (h *Host) isLocal(dst netip.Addr) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ifc := range h.ifcs {
		if ifc.HasAddr(dst) {
			return true
		}
	}
	return false
}

func (h *Host) deliverLocal(ifc *Interface, ip *ethernet.IPv4) {
	if ip.Protocol == ethernet.ProtoICMP {
		var m ethernet.ICMP
		if m.DecodeFromBytes(ip.Payload) != nil {
			return
		}
		switch m.Type {
		case ethernet.ICMPEchoRequest:
			reply := ethernet.ICMP{Type: ethernet.ICMPEchoReply, ID: m.ID, Seq: m.Seq, Data: append([]byte(nil), m.Data...)}
			_ = h.SendIP(&ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoICMP, Src: ip.Dst, Dst: ip.Src, Payload: reply.Marshal()})
			return
		case ethernet.ICMPEchoReply:
			h.echoMu.Lock()
			ch := h.echoWait[echoKey{m.ID, m.Seq}]
			h.echoMu.Unlock()
			if ch != nil {
				cp := m
				cp.Data = append([]byte(nil), m.Data...)
				select {
				case ch <- &cp:
				default:
				}
				return
			}
		}
	}
	h.mu.Lock()
	fn := h.handlers[ip.Protocol]
	h.mu.Unlock()
	if fn != nil {
		fn(h, ifc, ip)
	}
}

// forward implements router-style forwarding: decrement TTL, emit ICMP
// time exceeded (sourced from the ingress interface's primary address)
// when it hits zero, otherwise route onward.
func (h *Host) forward(in *Interface, ip *ethernet.IPv4) {
	if ip.TTL <= 1 {
		// Embed the offending header per RFC 792.
		orig := ip.Marshal()
		if len(orig) > ethernet.IPv4HeaderLen+8 {
			orig = orig[:ethernet.IPv4HeaderLen+8]
		}
		exceeded := ethernet.ICMP{Type: ethernet.ICMPTimeExceed, Data: orig}
		_ = h.SendIP(&ethernet.IPv4{
			TTL: 64, Protocol: ethernet.ProtoICMP,
			Src: in.PrimaryAddr(), Dst: ip.Src, Payload: exceeded.Marshal(),
		})
		return
	}
	fwd := *ip
	fwd.TTL--
	fwd.Payload = append([]byte(nil), ip.Payload...)
	_ = h.SendIP(&fwd)
}
