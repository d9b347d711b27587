package core

import (
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
)

// requireBusy calls Quiesced several times, a little apart, and fails if
// any call reports the router at rest.
func requireBusy(t *testing.T, r *Router, why string) {
	t.Helper()
	for i := 0; i < 5; i++ {
		if r.Quiesced() {
			t.Fatalf("Quiesced with %s", why)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQuiescedWaitsForMRAIBatch: a re-advertisement MRAI holds back is
// work in flight — the router is not at rest until the batch is sent.
func TestQuiescedWaitsForMRAIBatch(t *testing.T) {
	f := newFig1With(t, func(c *Config) { c.NeighborMRAI = time.Second })
	x1 := f.connectExperiment(t, "X1", false)
	quiet := func() bool {
		return f.router.Quiesced() && f.n1.sess.Quiesced() && f.n2.sess.Quiesced() && x1.sess.Quiesced()
	}
	x1.announce("10.1.0.0/24", []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "the announcement to settle", quiet)
	x1.announce("10.1.0.0/24", []uint32{expASN, expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "the re-advertisement to be paced", func() bool {
		return f.nbr1.Session().MRAISuppressed.Load() == 1 && f.nbr2.Session().MRAISuppressed.Load() == 1
	})
	requireBusy(t, f.router, "an MRAI batch pending")
	waitFor(t, 5*time.Second, "the paced batch to go out", quiet)
	for _, n := range []*testPeer{f.n1, f.n2} {
		if u := n.lastUpdate(); u == nil || len(u.Attrs.ASPathFlat()) != 3 {
			t.Fatalf("the neighbor's last UPDATE is %v, want the prepended re-advertisement", u)
		}
	}
}

// TestQuiescedSeesUnreadUpdate: an UPDATE the neighbor has written but
// the router has not read yet is work in flight, even though no session
// has anything queued and no table has changed.
func TestQuiescedSeesUnreadUpdate(t *testing.T) {
	r := NewRouter(Config{Name: "q1", ASN: platformASN, RouterID: ip("198.51.100.1")})
	lan := netsim.NewSegment("nbr-lan")
	r.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), lan)
	netsim.NewHost("N1").AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 0, 0x11}, pfx("192.0.2.1/24"), lan)
	cr, cn := pipe.New()
	gate := &gatedConn{Conn: cr}
	nbr, err := r.AddNeighbor(NeighborConfig{Name: "N1", ID: 1, ASN: n1ASN, Addr: ip("192.0.2.1"), Interface: "nbr0", Conn: gate})
	if err != nil {
		t.Fatal(err)
	}
	n1 := newTestPeer(t, cn, n1ASN, platformASN, "192.0.2.1", false)
	t.Cleanup(func() { n1.sess.Close() })
	n1.waitEstablished()
	quiet := func() bool { return r.Quiesced() && n1.sess.Quiesced() }
	waitFor(t, 5*time.Second, "the router to quiesce", quiet)
	// The router's reader, parked in the pipe, takes the first UPDATE;
	// its next read waits at the gate, so the second stays in the pipe.
	gate.hold()
	n1.announce("10.0.0.0/24", []uint32{n1ASN}, "192.0.2.1")
	waitFor(t, 5*time.Second, "the first UPDATE applied", func() bool { return nbr.Table.PathCount() == 1 })
	n1.announce("10.0.1.0/24", []uint32{n1ASN}, "192.0.2.1")
	waitFor(t, 5*time.Second, "the second UPDATE in the pipe", func() bool { return cr.Buffered() > 0 })
	requireBusy(t, r, "an UPDATE unread in a neighbor's pipe")
	gate.resume()
	waitFor(t, 5*time.Second, "the router to quiesce again", quiet)
	if got := nbr.Table.PathCount(); got != 2 {
		t.Fatalf("neighbor table holds %d paths at rest, want 2", got)
	}
}
