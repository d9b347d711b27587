// Package netsim provides an in-memory layer-2 network simulator: broadcast
// segments (links and IXP-style switch fabrics), interfaces with MAC and IP
// addressing, ARP resolution, and attachment points for ingress/egress
// packet filters.
//
// Frames are delivered synchronously: Interface.Send serializes the frame
// into a pooled buffer and invokes the receivers' handlers on the calling
// goroutine, and the buffer goes back to the pool when the call returns.
// This keeps forwarding deterministic and easy to test. What a frame
// crosses on its way — the segment's port table, each interface's
// configuration and ARP cache — is immutable and published through atomic
// pointers, so sending and receiving take no lock and segments may be
// driven from any number of goroutines; the mutexes serialize writers
// only.
package netsim

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ethernet"
)

// Verdict is the result of an attached packet filter, mirroring XDP-style
// return codes: a frame is either passed up the stack or dropped early.
type Verdict int

// Filter verdicts.
const (
	VerdictPass Verdict = iota
	VerdictDrop
)

// Filter inspects a raw frame at an interface hook point. Filters must
// neither retain nor write data: the buffer is the sender's, and a
// flooded frame shares it among every receiver.
type Filter interface {
	Process(data []byte) Verdict
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc func(data []byte) Verdict

// Process implements Filter.
func (f FilterFunc) Process(data []byte) Verdict { return f(data) }

// Segment is a broadcast domain: a point-to-point link when it has two
// ports, or a switch fabric (e.g. an IXP LAN) when it has more. Delivery
// is by destination MAC: unicast frames go to ports owning the MAC,
// broadcast/multicast frames flood to all other ports.
type Segment struct {
	// Name identifies the segment in logs and errors.
	Name string

	// CapacityBps is the provisioned capacity of the segment in bits per
	// second. Zero means unconstrained. Delivery is not throttled; the
	// value is metadata consumed by the traffic package's fluid-flow
	// model (used for the backbone throughput experiment, paper §6).
	CapacityBps float64

	// Latency is the one-way propagation delay of the segment, also
	// consumed by the traffic model.
	Latency time.Duration

	// mu serializes the writers of table. Interfaces call them holding
	// their own mutex (lock order: Interface.mu, then Segment.mu); the
	// segment never calls back into an interface under it.
	mu    sync.Mutex
	table atomic.Pointer[portTable]

	// Frames and Bytes count total deliveries across the segment.
	Frames atomic.Uint64
	Bytes  atomic.Uint64
}

// portTable is the segment's forwarding state: immutable once published,
// replaced copy-on-write — only the member that changes is copied — when
// a port attaches or detaches or changes the MACs it accepts.
type portTable struct {
	// ports is every attached port, in attach order.
	ports []*Interface
	// owners maps a unicast MAC to the ports accepting it.
	owners map[ethernet.MAC][]*Interface
}

var emptyPortTable = &portTable{owners: map[ethernet.MAC][]*Interface{}}

// NewSegment creates a named, unconstrained segment.
func NewSegment(name string) *Segment {
	return NewLink(name, 0, 0)
}

// NewLink creates a segment with the given capacity and latency, intended
// for point-to-point backbone links.
func NewLink(name string, capacityBps float64, latency time.Duration) *Segment {
	s := &Segment{Name: name, CapacityBps: capacityBps, Latency: latency}
	s.table.Store(emptyPortTable)
	return s
}

// without returns ports with p removed — a fresh slice, or ports itself
// when p is not in it.
func without(ports []*Interface, p *Interface) []*Interface {
	i := slices.Index(ports, p)
	if i < 0 {
		return ports
	}
	return slices.Delete(slices.Clone(ports), i, i+1)
}

// with returns a fresh slice of ports with p appended.
func with(ports []*Interface, p *Interface) []*Interface {
	return append(slices.Clip(ports), p)
}

// update publishes a modified copy of the port table. change gets a
// shallow copy and must replace, not write into, the members it alters.
func (s *Segment) update(change func(t *portTable)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := *s.table.Load()
	change(&next)
	s.table.Store(&next)
}

// claim returns owners with ifc accepting (add) or no longer accepting
// each of macs.
func claim(owners map[ethernet.MAC][]*Interface, ifc *Interface, macs []ethernet.MAC, add bool) map[ethernet.MAC][]*Interface {
	owners = maps.Clone(owners)
	for _, m := range macs {
		cur := owners[m]
		switch has := slices.Contains(cur, ifc); {
		case add && !has:
			owners[m] = with(cur, ifc)
		case !add && has && len(cur) == 1:
			delete(owners, m)
		case !add && has:
			owners[m] = without(cur, ifc)
		}
	}
	return owners
}

// attach registers an interface accepting macs on the segment.
func (s *Segment) attach(ifc *Interface, macs []ethernet.MAC) {
	s.update(func(t *portTable) {
		t.ports = with(t.ports, ifc)
		t.owners = claim(t.owners, ifc, macs, true)
	})
}

// detach removes an interface attached with the same macs.
func (s *Segment) detach(ifc *Interface, macs []ethernet.MAC) {
	s.update(func(t *portTable) {
		t.ports = without(t.ports, ifc)
		t.owners = claim(t.owners, ifc, macs, false)
	})
}

// setMAC makes the attached ifc accept (or stop accepting) frames for
// mac.
func (s *Segment) setMAC(ifc *Interface, mac ethernet.MAC, add bool) {
	s.update(func(t *portTable) {
		t.owners = claim(t.owners, ifc, []ethernet.MAC{mac}, add)
	})
}

// transmit delivers a serialized frame originating at src to the other
// ports on the segment according to its destination MAC: one index lookup
// for a unicast frame, whatever the number of ports.
func (s *Segment) transmit(src *Interface, data []byte) {
	t := s.table.Load()
	dst := ethernet.MAC(data[:6])
	if dst.IsMulticast() {
		s.deliver(t.ports, src, data)
		return
	}
	s.deliver(t.owners[dst], src, data)
}

func (s *Segment) deliver(ports []*Interface, src *Interface, data []byte) {
	for _, p := range ports {
		if p == src {
			continue
		}
		s.Frames.Add(1)
		s.Bytes.Add(uint64(len(data)))
		p.deliver(data)
	}
}

// String implements fmt.Stringer.
func (s *Segment) String() string { return fmt.Sprintf("segment(%s)", s.Name) }
