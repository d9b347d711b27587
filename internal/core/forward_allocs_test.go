//go:build !race

package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/rib"
)

// TestForwardAllocs is the packet path's allocation guard, in the style
// of TestExportAllocsFlatInExperiments: over a real 64-port neighbor LAN,
// a frame forwarded from the experiment LAN to a neighbor port — and one
// forwarded inbound from a neighbor port to an experiment's host —
// allocates nothing: no marshal, no decoded frame on the heap, no target
// slice, no lock-protected copy. (The race detector instruments
// allocation; the guard is pinned in CI's plain test job.)
func TestForwardAllocs(t *testing.T) {
	const ports, frames = 64, 1024
	nbrLAN, expLAN := netsim.NewSegment("ix-lan"), netsim.NewSegment("exp-lan")
	r := NewRouter(Config{Name: "e1-allocs", ASN: platformASN, RouterID: ip("198.51.100.1")})
	ix := r.AddInterface("ix0", "neighbor", pfx("198.19.255.254/16"), nbrLAN)
	r.AddInterface("exp0", "experiment", pfx("100.65.0.254/24"), expLAN)

	var atPorts, atExperiment atomic.Int64
	nbrs := make([]*Neighbor, ports)
	sinks := make([]*netsim.Interface, ports)
	for i := range nbrs {
		addr := netip.AddrFrom4([4]byte{198, 19, 0, byte(i + 1)})
		sinks[i] = netsim.NewInterface(fmt.Sprintf("port%d", i), ethernet.MAC{0x02, 0xa5, 0, 0, 0, byte(i)})
		sinks[i].AddAddr(addr)
		sinks[i].SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
			if fr.Type == ethernet.TypeIPv4 { // not the router's ARP requests for the other ports
				atPorts.Add(1)
			}
		})
		sinks[i].Attach(nbrLAN)
		// The session never establishes (nobody answers the OPEN) and so
		// never allocates; the forwarder resolves the port's MAC itself.
		routerEnd, _ := pipe.New()
		n, err := r.AddNeighbor(NeighborConfig{Name: fmt.Sprintf("ix-%d", i), ID: uint32(i + 1), ASN: 65000 + uint32(i),
			Addr: addr, Interface: "ix0", Conn: routerEnd})
		if err != nil {
			t.Fatal(err)
		}
		n.Table.Add(&rib.Path{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), Peer: n.Name,
			EBGP: true, Seq: rib.NextSeq(), Attrs: &bgp.PathAttrs{NextHop: addr}})
		n.Table.BuildSnapshot()
		nbrs[i] = n
	}
	r.ExperimentRoutes().Add(&rib.Path{Prefix: pfx("184.164.224.0/24"), Peer: "X1", EBGP: true, Seq: rib.NextSeq(),
		Attrs: &bgp.PathAttrs{NextHop: ip("100.65.0.1")}})
	r.ExperimentRoutes().BuildSnapshot()
	r.SetExperimentTunnelIP("X1", ip("100.65.0.1"))
	host := netsim.NewInterface("x1", ethernet.MAC{0x0a, 0, 0, 0, 0, 1})
	host.AddAddr(ip("100.65.0.1"))
	host.SetHandler(func(_ *netsim.Interface, fr *ethernet.Frame) {
		if fr.Src[0] == 0x02 && fr.Src[1] == 0x7f { // attributed to the delivering neighbor
			atExperiment.Add(1)
		}
	})
	host.Attach(expLAN)
	tx := netsim.NewInterface("tx", ethernet.MAC{0x0a, 0xfe, 0, 0, 0, 1})
	tx.Attach(expLAN)

	egress, ingress := make([]ethernet.Frame, ports), make([]ethernet.Frame, ports)
	for i := range egress {
		out := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: ip("184.164.224.1"),
			Dst: netip.AddrFrom4([4]byte{10, byte(i), 0, 1}), Payload: make([]byte, 72)}
		egress[i] = ethernet.Frame{Dst: nbrs[i].LocalMAC, Src: tx.MAC(), Type: ethernet.TypeIPv4, Payload: out.Marshal()}
		in := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: out.Dst, Dst: ip("184.164.224.9"), Payload: make([]byte, 72)}
		ingress[i] = ethernet.Frame{Dst: ix.MAC(), Src: sinks[i].MAC(), Type: ethernet.TypeIPv4, Payload: in.Marshal()}
	}
	forward := func() {
		for i := 0; i < frames; i++ {
			tx.Send(&egress[i%ports])
		}
	}
	inbound := func() {
		for i := 0; i < frames; i++ {
			sinks[i%ports].Send(&ingress[i%ports])
		}
	}
	// Warm-up: the forwarder learns each port's MAC (which is also what
	// attributes inbound frames), ARP caches and buffer pools fill.
	forward()
	inbound()
	if atPorts.Load() != frames || atExperiment.Load() != frames || r.Forwarded.Load() != 2*frames {
		t.Fatalf("warm-up: %d frames at the ports, %d attributed frames at the experiment, %d forwarded; want %d, %d, %d",
			atPorts.Load(), atExperiment.Load(), r.Forwarded.Load(), frames, frames, 2*frames)
	}

	for _, c := range []struct {
		name string
		run  func()
	}{{"forwarded", forward}, {"inbound", inbound}} {
		// Process-wide mallocs over 5×1024 frames: a stray allocation on
		// another goroutine stays far below one per hundred frames.
		if per := testing.AllocsPerRun(5, c.run) / frames; per > 0.01 {
			t.Errorf("%.3f allocations per %s frame, want 0", per, c.name)
		}
	}
	// A garbage collection between batches must not cost the next batch
	// anything: the frame path's pools keep their objects across it (a
	// sync.Pool is emptied by two collections and refills on the packets
	// that follow).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	forward()
	inbound()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d allocations over %d frames forwarded after a GC, want 0", n, 2*frames)
	}
	if lookups := r.ExperimentRoutes().Stats(); lookups.SnapshotLookups != lookups.Lookups {
		t.Errorf("%d of %d experiment-route lookups missed the snapshot", lookups.Lookups-lookups.SnapshotLookups, lookups.Lookups)
	}
}
