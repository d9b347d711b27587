package core

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/netsim"
	"repro/internal/pipe"
)

// grSpeaker runs one scripted neighbor session that advertises graceful
// restart and, on establishment, announces the given prefixes followed
// by End-of-RIB for both families.
func startGRSpeaker(localASN, remoteASN uint32, id string, conn net.Conn, prefixes []string) *bgp.Session {
	var sess *bgp.Session
	sess = bgp.NewSession(conn, bgp.Config{
		LocalASN: localASN, RemoteASN: remoteASN, LocalID: ip(id),
		Families:        []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		GracefulRestart: &bgp.GracefulRestartConfig{RestartTime: 5 * time.Second},
		OnEstablished: func() {
			for _, p := range prefixes {
				attrs := &bgp.PathAttrs{
					Origin: bgp.OriginIGP, HasOrigin: true,
					ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{localASN}}},
					NextHop: ip(id),
				}
				_ = sess.Send(&bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: pfx(p)}}})
			}
			_ = sess.SendEndOfRIB(bgp.IPv4Unicast)
			_ = sess.SendEndOfRIB(bgp.IPv6Unicast)
		},
	})
	go sess.Run()
	return sess
}

// TestNeighborGracefulRestartAcrossReconnect kills a supervised
// neighbor's transport and verifies the RFC 4724 flow end to end:
// routes are retained as stale while the peer is down, the supervisor
// redials, and after the restarted peer's End-of-RIB the
// non-re-advertised path is swept while the re-advertised one survives.
func TestNeighborGracefulRestartAcrossReconnect(t *testing.T) {
	lan := netsim.NewSegment("nbr-lan")
	r := NewRouter(Config{Name: "e1", ASN: platformASN, RouterID: ip("198.51.100.1")})
	r.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), lan)

	var peerConn atomic.Value // net.Conn: the speaker side of the live pair
	var dials atomic.Int32
	dial := func() ([2]net.Conn, []string) {
		// First session announces two prefixes; the restarted one
		// re-advertises only the first.
		prefixes := []string{"10.0.0.0/16", "10.1.0.0/16"}
		if dials.Add(1) > 1 {
			prefixes = prefixes[:1]
		}
		cr, cn := pipe.New()
		return [2]net.Conn{cr, cn}, prefixes
	}

	pair, prefixes := dial()
	peerConn.Store(pair[1])
	startGRSpeaker(n1ASN, platformASN, "192.0.2.1", pair[1], prefixes)

	n, err := r.AddNeighbor(NeighborConfig{
		Name: "N1", ID: 1, ASN: n1ASN, Addr: ip("192.0.2.1"), Interface: "nbr0",
		Conn:            pair[0],
		GracefulRestart: 5 * time.Second,
		Redial: func() (net.Conn, error) {
			p, pfxs := dial()
			peerConn.Store(p[1])
			startGRSpeaker(n1ASN, platformASN, "192.0.2.1", p[1], pfxs)
			return p[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "initial routes", func() bool { return n.Table.PathCount() == 2 })

	// Transport loss (not an administrative close).
	peerConn.Load().(net.Conn).Close()
	waitFor(t, 5*time.Second, "stale retention", func() bool { return n.Table.StaleCount(n.Name) == 2 })
	if got := n.Table.PathCount(); got != 2 {
		t.Fatalf("paths flushed on graceful drop: PathCount = %d, want 2", got)
	}

	// The supervisor redials; the restarted peer replays one prefix and
	// ends with End-of-RIB, sweeping the other.
	waitFor(t, 5*time.Second, "post-restart convergence", func() bool {
		return n.Table.StaleCount(n.Name) == 0 && n.Table.PathCount() == 1
	})
	if best := n.Table.Best(pfx("10.0.0.0/16")); best == nil || best.Stale {
		t.Fatalf("re-advertised path missing or stale: %+v", best)
	}
	if n.Table.Best(pfx("10.1.0.0/16")) != nil {
		t.Fatal("non-re-advertised path survived End-of-RIB sweep")
	}
	if dials.Load() < 2 {
		t.Fatalf("supervisor never redialed (dials = %d)", dials.Load())
	}
}

// TestExperimentGracefulReconnect drops an experiment's control session
// and verifies its announcements survive until the reconnected client
// replays them and sends End-of-RIB.
func TestExperimentGracefulReconnect(t *testing.T) {
	r := NewRouter(Config{Name: "e1", ASN: platformASN, RouterID: ip("198.51.100.1")})

	announce := func(sess *bgp.Session, prefixes ...string) {
		for _, p := range prefixes {
			attrs := &bgp.PathAttrs{
				Origin: bgp.OriginIGP, HasOrigin: true,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN}}},
				NextHop: ip("100.65.0.1"),
			}
			_ = sess.Send(&bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: pfx(p)}}})
		}
	}
	clientCfg := func(est chan struct{}) bgp.Config {
		return bgp.Config{
			LocalASN: expASN, RemoteASN: platformASN, LocalID: ip("100.65.0.1"),
			Families: []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
			AddPath: map[bgp.AFISAFI]uint8{
				bgp.IPv4Unicast: bgp.AddPathSendReceive,
				bgp.IPv6Unicast: bgp.AddPathSendReceive,
			},
			GracefulRestart: &bgp.GracefulRestartConfig{RestartTime: 5 * time.Second},
			OnEstablished:   func() { close(est) },
		}
	}

	cr, cn := pipe.New()
	if _, err := r.ConnectExperiment("X1", expASN, cr); err != nil {
		t.Fatal(err)
	}
	est1 := make(chan struct{})
	client := bgp.NewSession(cn, clientCfg(est1))
	go client.Run()
	<-est1
	announce(client, "10.1.0.0/24", "10.1.1.0/24")
	waitFor(t, 5*time.Second, "experiment routes", func() bool { return r.ExperimentRoutes().PathCount() == 2 })

	// Tunnel dies: transport error, routes retained as stale.
	cn.Close()
	waitFor(t, 5*time.Second, "stale experiment routes", func() bool { return r.ExperimentRoutes().StaleCount("X1") == 2 })
	if got := r.ExperimentRoutes().PathCount(); got != 2 {
		t.Fatalf("experiment routes flushed on graceful drop: %d", got)
	}

	// Reconnect under the same name: allowed because the old session is
	// dead. The client replays one prefix and signals End-of-RIB.
	cr2, cn2 := pipe.New()
	if _, err := r.ConnectExperiment("X1", expASN, cr2); err != nil {
		t.Fatalf("reconnect rejected: %v", err)
	}
	est2 := make(chan struct{})
	client2 := bgp.NewSession(cn2, clientCfg(est2))
	go client2.Run()
	<-est2
	announce(client2, "10.1.0.0/24")
	_ = client2.SendEndOfRIB(bgp.IPv4Unicast)
	_ = client2.SendEndOfRIB(bgp.IPv6Unicast)

	waitFor(t, 5*time.Second, "post-reconnect convergence", func() bool {
		tbl := r.ExperimentRoutes()
		return tbl.StaleCount("X1") == 0 && tbl.PathCount() == 1
	})
	if r.ExperimentRoutes().Best(pfx("10.1.1.0/24")) != nil {
		t.Fatal("non-replayed experiment route survived the sweep")
	}

	// A second live session under the same name is still rejected.
	cr3, _ := pipe.New()
	if _, err := r.ConnectExperiment("X1", expASN, cr3); err == nil {
		t.Fatal("duplicate live experiment session accepted")
	}
}

// TestNeighborAdministrativeCloseStillWithdraws ensures the graceful
// path does not swallow deliberate teardowns: closing the neighbor
// session administratively withdraws routes immediately even with
// graceful restart negotiated.
func TestNeighborAdministrativeCloseStillWithdraws(t *testing.T) {
	lan := netsim.NewSegment("nbr-lan")
	r := NewRouter(Config{Name: "e1", ASN: platformASN, RouterID: ip("198.51.100.1")})
	r.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), lan)

	cr, cn := pipe.New()
	n, err := r.AddNeighbor(NeighborConfig{
		Name: "N1", ID: 1, ASN: n1ASN, Addr: ip("192.0.2.1"), Interface: "nbr0",
		Conn:            cr,
		GracefulRestart: 5 * time.Second,
		Redial:          func() (net.Conn, error) { return nil, net.ErrClosed },
	})
	if err != nil {
		t.Fatal(err)
	}
	startGRSpeaker(n1ASN, platformASN, "192.0.2.1", cn, []string{"10.0.0.0/16"})
	waitFor(t, 5*time.Second, "initial route", func() bool { return n.Table.PathCount() == 1 })

	n.Session().Close()
	waitFor(t, 5*time.Second, "immediate withdrawal", func() bool { return n.Table.PathCount() == 0 })
	if got := n.Table.StaleCount(n.Name); got != 0 {
		t.Fatalf("administrative close left %d stale paths", got)
	}
}
