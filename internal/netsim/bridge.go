package netsim

import (
	"sync"
	"sync/atomic"

	"repro/internal/ethernet"
)

// Bridge joins segments into one layer-2 broadcast domain with MAC
// learning, like the switch fabric of an exchange: unicast frames whose
// destination was learned forward only toward that segment; unknown
// unicast and broadcast flood everywhere else. There is no spanning
// tree — attaching a bridge in a loop is the operator's problem, as on
// real fabrics.
type Bridge struct {
	// Name identifies the bridge.
	Name string

	mu    sync.Mutex
	ports map[*Segment]*Interface
	fdb   map[ethernet.MAC]*Segment

	// Flooded and Forwarded count unknown-destination floods and
	// learned-path forwards.
	Flooded   atomic.Uint64
	Forwarded atomic.Uint64
}

// NewBridge creates a bridge with no ports.
func NewBridge(name string) *Bridge {
	return &Bridge{
		Name:  name,
		ports: make(map[*Segment]*Interface),
		fdb:   make(map[ethernet.MAC]*Segment),
	}
}

// AttachSegment adds a segment as a bridge port.
func (b *Bridge) AttachSegment(seg *Segment) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.ports[seg]; dup {
		return
	}
	mac := deriveBridgeMAC(b.Name, len(b.ports))
	ifc := NewInterface(b.Name+"-"+seg.Name, mac)
	ifc.SetPromiscuous(true)
	ifc.SetRawHandler(func(_ *Interface, data []byte) { b.relay(seg, data) })
	ifc.Attach(seg)
	b.ports[seg] = ifc
}

func deriveBridgeMAC(name string, idx int) ethernet.MAC {
	var m ethernet.MAC
	m[0], m[1] = 0x02, 0xb8
	for i := 0; i < len(name) && i < 3; i++ {
		m[2+i] = name[i]
	}
	m[5] = byte(idx)
	return m
}

// Lookup reports which segment a MAC was learned on (tests/diagnostics).
func (b *Bridge) Lookup(mac ethernet.MAC) (*Segment, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	seg, ok := b.fdb[mac]
	return seg, ok
}

// relay learns the source and forwards or floods the frame, passing the
// received bytes on as they are.
func (b *Bridge) relay(ingress *Segment, data []byte) {
	dst, src := ethernet.MAC(data[0:6]), ethernet.MAC(data[6:12])
	b.mu.Lock()
	// Never learn or re-forward our own port MACs (split horizon for
	// frames another bridge port already re-injected).
	for _, p := range b.ports {
		if src == p.MAC() {
			b.mu.Unlock()
			return
		}
	}
	b.fdb[src] = ingress
	var targets []*Interface
	if to, known := b.fdb[dst]; known && !dst.IsMulticast() {
		if to != ingress {
			targets = append(targets, b.ports[to])
			b.Forwarded.Add(1)
		}
		// Known on the ingress segment: nothing to do.
	} else {
		for seg, port := range b.ports {
			if seg != ingress {
				targets = append(targets, port)
			}
		}
		b.Flooded.Add(1)
	}
	b.mu.Unlock()

	for _, port := range targets {
		port.SendRaw(data)
	}
}
