package core

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/rpki"
)

// farEnd runs the remote side of a router session and returns it once
// Established.
func farEnd(t *testing.T, conn *pipe.Conn, localASN uint32, id string, addPath bool) *bgp.Session {
	est := make(chan struct{})
	cfg := bgp.Config{LocalASN: localASN, RemoteASN: platformASN, LocalID: ip(id),
		Families:      []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		OnEstablished: func() { close(est) }}
	if addPath {
		cfg.AddPath = map[bgp.AFISAFI]uint8{bgp.IPv4Unicast: bgp.AddPathSendReceive, bgp.IPv6Unicast: bgp.AddPathSendReceive}
	}
	s := bgp.NewSession(conn, cfg)
	go s.Run()
	select {
	case <-est:
	case <-time.After(10 * time.Second):
		t.Errorf("%s: session did not establish", id)
	}
	return s
}

// TestTopologyChurn: neighbors, experiments and a backbone peer connect
// and drop while an experiment's announcements sync to the neighbors and
// relay to the backbone, neighbor routes fan out, exports are
// revalidated and backbone ARP is answered — every reader on the
// topology it loaded, none holding the router's mutex. The race detector
// is the main check; the end state is the other.
func TestTopologyChurn(t *testing.T) {
	const cycles = 12
	r := NewRouter(Config{Name: "topo-churn", ASN: platformASN, RouterID: ip("198.51.100.1"),
		Validator: validatorFunc(func(netip.Prefix, uint32) rpki.State { return rpki.Valid })})
	lan := netsim.NewSegment("churn-nbr")
	r.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), lan)
	r.AddInterface("exp0", "experiment", pfx("100.65.0.254/24"), netsim.NewSegment("churn-exp"))
	r.AddInterface("bb0", "backbone", pfx("100.127.0.1/24"), netsim.NewSegment("churn-bb"))

	addNeighbor := func(i int) *bgp.Session {
		addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})
		netsim.NewHost(fmt.Sprintf("N%d", i+1)).AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 1, byte(i)}, netip.PrefixFrom(addr, 24), lan)
		cr, cn := pipe.New()
		if _, err := r.AddNeighbor(NeighborConfig{Name: fmt.Sprintf("N%d", i+1), ID: uint32(i + 1),
			ASN: n1ASN + uint32(i), Addr: addr, Interface: "nbr0", Conn: cr}); err != nil {
			t.Error(err)
			return nil
		}
		return farEnd(t, cn, n1ASN+uint32(i), addr.String(), false)
	}
	stay := addNeighbor(0)
	defer stay.Close()

	var churners, readers sync.WaitGroup
	done := make(chan struct{})
	churn := func(f func(i int)) {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for i := 0; i < cycles; i++ {
				f(i)
			}
		}()
	}
	read := func(f func(i int)) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				f(i)
			}
		}()
	}

	churn(func(i int) { // a neighbor connects, announces a route and drops
		s := addNeighbor(i + 1)
		if s == nil {
			return
		}
		u := &bgp.Update{Attrs: &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("192.0.2.1"),
			ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{n1ASN + uint32(i+1)}}}},
			NLRI: []bgp.NLRI{{Prefix: tablePrefix(i)}}}
		if err := s.Send(u); err != nil {
			t.Error(err)
		}
		s.Close()
	})
	churn(func(i int) { // an experiment connects, takes its dump and drops
		cr, ce := pipe.New()
		sess, err := r.ConnectExperiment("X", expASN, cr)
		if err != nil {
			t.Error(err)
			return
		}
		farEnd(t, ce, expASN, "100.65.0.1", true).Close()
		<-sess.Done()
	})
	churn(func(i int) { // the backbone peer connects, takes its dump and drops
		cr, cb := pipe.New()
		if err := r.AddBackbonePeer("e2", ip("100.127.0.2"), cr); err != nil {
			t.Error(err)
			return
		}
		farEnd(t, cb, platformASN, "100.127.0.2", true).Close()
		for deadline := time.Now().Add(10 * time.Second); r.topo.Load().meshPeers["e2"] != nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("backbone peer never unregistered")
				return
			}
		}
	})
	announcer := &expConn{name: "A"}
	read(func(i int) { // announcements, steered, and withdrawals
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 9, byte(i % 4), 0}), 24)
		if i%3 == 2 {
			r.handleExperimentUpdate(announcer, &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: prefix}}})
			return
		}
		r.handleExperimentUpdate(announcer, &bgp.Update{Attrs: &bgp.PathAttrs{
			Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("100.65.0.9"),
			ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN}}},
			Communities: []bgp.Community{NoExportTo(platformASN, uint32(i%5+1))},
		}, NLRI: []bgp.NLRI{{Prefix: prefix}}})
	})
	read(func(int) { // backbone and experiment ARP, and the other readers
		for _, n := range r.Neighbors() {
			if mac, ok := r.answerBackboneARP(n.GlobalIP); ok != !n.Remote || (ok && mac != n.LocalMAC) {
				t.Errorf("backbone ARP for %s answered %s %v", n.Name, mac, ok)
			}
			if _, ok := r.answerExperimentARP(n.LocalIP); !ok {
				t.Errorf("experiment ARP for %s unanswered", n.Name)
			}
		}
		r.RouteCount()
		r.RevalidateExports()
		time.Sleep(100 * time.Microsecond)
	})
	churners.Wait()
	close(done)
	readers.Wait()

	// Every neighbor stays registered, the experiment and the backbone
	// peer are gone, and an announcement blacklisting N1 is exported to
	// the others.
	topo := r.topo.Load()
	if len(topo.neighbors) != cycles+1 || len(topo.meshPeers) != 0 {
		t.Errorf("topology after churn: %d neighbors, %d backbone peers; want %d, 0",
			len(topo.neighbors), len(topo.meshPeers), cycles+1)
	}
	waitFor(t, 5*time.Second, "the experiment to unregister", func() bool { return len(r.topo.Load().experiments) == 0 })
	r.handleExperimentUpdate(announcer, &bgp.Update{Attrs: &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("100.65.0.9"),
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN}}},
		Communities: []bgp.Community{NoExportTo(platformASN, 1)},
	}, NLRI: []bgp.NLRI{{Prefix: pfx("10.9.0.0/24")}}})
	if got := r.Neighbor("N1").AdjOut.Paths(pfx("10.9.0.0/24")); len(got) != 0 {
		t.Errorf("blacklisted N1 holds %d exports of 10.9.0.0/24", len(got))
	}
	if got := r.Neighbor("N2").AdjOut.Paths(pfx("10.9.0.0/24")); len(got) != 1 {
		t.Errorf("N2 holds %d exports of 10.9.0.0/24, want 1", len(got))
	}
}
