package core

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/chaos"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// The export path's tests: what a session ends up holding must be what
// the tables hold — through table dumps racing churn, through sessions
// that establish while routes flow, and next to consumers that wedge.

// routeKey and fingerprint are how a view is compared with the tables:
// (prefix, path ID) → what the route's attributes must be.
type routeKey struct {
	prefix netip.Prefix
	id     bgp.PathID
}

func fingerprint(a *bgp.PathAttrs) string {
	return fmt.Sprint(a.ASPathFlat(), a.MED, a.Communities)
}

// gatedConn is a transport end whose reads can be held, the way a peer
// that stops reading behaves. Over net.Pipe, which buffers nothing, the
// other end's next write then blocks.
type gatedConn struct {
	net.Conn
	mu   sync.Mutex
	gate chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	g := c.gate
	c.mu.Unlock()
	if g != nil {
		<-g
	}
	return c.Conn.Read(p)
}

func (c *gatedConn) hold() {
	c.mu.Lock()
	if c.gate == nil {
		c.gate = make(chan struct{})
	}
	c.mu.Unlock()
}

func (c *gatedConn) resume() {
	c.mu.Lock()
	if c.gate != nil {
		close(c.gate)
		c.gate = nil
	}
	c.mu.Unlock()
}

// Buffered forwards the unread-byte count of the transport under the
// gate, when it keeps one (a pipe.Conn does, a net.Pipe does not).
func (c *gatedConn) Buffered() int {
	if b, ok := c.Conn.(interface{ Buffered() int }); ok {
		return b.Buffered()
	}
	return 0
}

func (c *gatedConn) Close() error {
	c.resume()
	return c.Conn.Close()
}

// viewPeer is the far end of an experiment or mesh session: it applies
// every UPDATE, in order, to a view of what the router has told it.
type viewPeer struct {
	sess *bgp.Session
	gate *gatedConn // nil over a buffered pipe

	mu   sync.Mutex
	view map[routeKey]string
	eor  chan struct{} // IPv4 End-of-RIB received
	est  chan struct{}
}

// newViewPeer starts the peer's session on conn. holdOnEstablish stops
// it reading the moment it is Established — before the first dump byte.
func newViewPeer(conn net.Conn, asn uint32, id string, holdOnEstablish bool) *viewPeer {
	p := &viewPeer{view: make(map[routeKey]string), eor: make(chan struct{}, 4), est: make(chan struct{})}
	if g, ok := conn.(*gatedConn); ok {
		p.gate = g
	}
	p.sess = bgp.NewSession(conn, bgp.Config{
		LocalASN: asn, RemoteASN: platformASN, LocalID: ip(id),
		Families: []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSendReceive,
			bgp.IPv6Unicast: bgp.AddPathSendReceive,
		},
		GracefulRestart: &bgp.GracefulRestartConfig{RestartTime: 5 * time.Second},
		OnEstablished: func() {
			if holdOnEstablish {
				p.gate.hold()
			}
			close(p.est)
		},
		OnUpdate: func(u *bgp.Update) {
			p.mu.Lock()
			for _, w := range u.Withdrawn {
				delete(p.view, routeKey{w.Prefix, w.ID})
			}
			for _, n := range u.NLRI {
				p.view[routeKey{n.Prefix, n.ID}] = fingerprint(u.Attrs)
			}
			p.mu.Unlock()
		},
		OnEndOfRIB: func(f bgp.AFISAFI) {
			if f == bgp.IPv4Unicast {
				p.eor <- struct{}{}
			}
		},
	})
	go p.sess.Run()
	return p
}

func (p *viewPeer) waitEstablished(t *testing.T) {
	t.Helper()
	select {
	case <-p.est:
	case <-time.After(10 * time.Second):
		t.Fatal("view peer did not establish")
	}
}

func (p *viewPeer) waitEndOfRIB(t *testing.T) {
	t.Helper()
	select {
	case <-p.eor:
	case <-time.After(20 * time.Second):
		t.Fatal("table dump did not finish (no End-of-RIB)")
	}
}

// tablesView is what every experiment (local=false) or backbone peer
// (local=true: local neighbors only) must hold: per neighbor, the best
// route of every prefix, keyed by the neighbor's platform ID.
func tablesView(r *Router, local bool) map[routeKey]string {
	want := make(map[routeKey]string)
	for _, n := range r.Neighbors() {
		if local && n.Remote {
			continue
		}
		n.Table.WalkBest(func(prefix netip.Prefix, best *rib.Path) bool {
			want[routeKey{prefix, bgp.PathID(n.ID)}] = fingerprint(best.Attrs)
			return true
		})
	}
	return want
}

// diffView reports how p's view differs from want ("" when equal).
func (p *viewPeer) diffView(want map[routeKey]string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, w := range want {
		if got, ok := p.view[k]; !ok {
			return fmt.Sprintf("%s id %d missing", k.prefix, k.id)
		} else if got != w {
			return fmt.Sprintf("%s id %d is %s, tables say %s", k.prefix, k.id, got, w)
		}
	}
	for k := range p.view {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("%s id %d held but not in the tables", k.prefix, k.id)
		}
	}
	return ""
}

// fanoutRouter is one router with neighbor sessions the test drives.
type fanoutRouter struct {
	r    *Router
	nbrs []*bgp.Session // the neighbors' ends
	ns   []*Neighbor
}

// fanoutSeq names each test router apart, so the per-session telemetry
// series a test reads start at zero however often it runs.
var fanoutSeq atomic.Int64

func newFanoutRouter(t *testing.T, neighbors int) *fanoutRouter {
	t.Helper()
	f := &fanoutRouter{r: NewRouter(Config{Name: fmt.Sprintf("fan%d", fanoutSeq.Add(1)), ASN: platformASN, RouterID: ip("198.51.100.1")})}
	lan := netsim.NewSegment("nbr-lan")
	f.r.AddInterface("nbr0", "neighbor", pfx("192.0.2.254/24"), lan)
	f.r.AddInterface("bb0", "backbone", pfx("100.127.0.1/24"), netsim.NewSegment("bb"))
	for i := 0; i < neighbors; i++ {
		cr, cn := pipe.New()
		addr := ip(fmt.Sprintf("192.0.2.%d", i+1))
		// A host answering ARP for the neighbor, so the router's MAC
		// resolution on establishment does not sit out its timeout.
		netsim.NewHost(fmt.Sprintf("N%d", i+1)).AddInterface("eth0", ethernet.MAC{0x02, 0, 0, 0, 0, byte(0x11 + i)}, netip.PrefixFrom(addr, 24), lan)
		n, err := f.r.AddNeighbor(NeighborConfig{
			Name: fmt.Sprintf("N%d", i+1), ID: uint32(i + 1), ASN: n1ASN + uint32(i), Addr: addr, Interface: "nbr0", Conn: cr,
		})
		if err != nil {
			t.Fatal(err)
		}
		est := make(chan struct{})
		s := bgp.NewSession(cn, bgp.Config{LocalASN: n1ASN + uint32(i), RemoteASN: platformASN, LocalID: addr,
			OnEstablished: func() { close(est) }})
		go s.Run()
		select {
		case <-est:
		case <-time.After(5 * time.Second):
			t.Fatal("neighbor session did not establish")
		}
		f.nbrs = append(f.nbrs, s)
		f.ns = append(f.ns, n)
		t.Cleanup(func() { s.Close() })
	}
	return f
}

func tablePrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + i>>16), byte(i >> 8), byte(i), 0}), 24)
}

// announce sends prefix i from neighbor nbr with a version stamp (the
// MED) and, with pad, enough opaque attribute bytes to make the UPDATE
// about 4 KB on the wire.
func (f *fanoutRouter) announce(t *testing.T, nbr, i int, version uint32, pad bool) {
	t.Helper()
	a := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{n1ASN + uint32(nbr), 3356, uint32(1000 + i%500)}}},
		NextHop: ip(fmt.Sprintf("192.0.2.%d", nbr+1)), MED: version, HasMED: true,
	}
	if pad {
		a.Unknown = []bgp.UnknownAttr{{Flags: bgp.FlagOptional | bgp.FlagTransitive, Type: 99, Data: make([]byte, 3900)}}
	}
	if err := f.nbrs[nbr].Send(&bgp.Update{Attrs: a, NLRI: []bgp.NLRI{{Prefix: tablePrefix(i)}}}); err != nil {
		t.Fatalf("neighbor %d announce: %v", nbr, err)
	}
}

func (f *fanoutRouter) withdraw(t *testing.T, nbr, i int) {
	t.Helper()
	if err := f.nbrs[nbr].Send(&bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: tablePrefix(i)}}}); err != nil {
		t.Fatalf("neighbor %d withdraw: %v", nbr, err)
	}
}

// load announces routes prefixes per neighbor and waits for the tables.
func (f *fanoutRouter) load(t *testing.T, routes int) {
	t.Helper()
	for nbr := range f.nbrs {
		for i := 0; i < routes; i++ {
			f.announce(t, nbr, i, 0, false)
		}
	}
	waitFor(t, 5*time.Second, "tables to load", func() bool { return f.r.RouteCount() == routes*len(f.nbrs) })
}

// quiet reports whether the router, its neighbors' ends and the given
// peers' ends are all at rest (Router.Quiesced, bgp.Session.Quiesced).
func (f *fanoutRouter) quiet(peers ...*viewPeer) bool {
	q := f.r.Quiesced()
	for _, s := range f.nbrs {
		q = s.Quiesced() && q
	}
	for _, p := range peers {
		q = p.sess.Quiesced() && q
	}
	return q
}

// requireConverged waits for quiet, then requires every peer's view to
// be exactly what the tables hold: each experiment's (local=false) or
// backbone peer's (local=true).
func (f *fanoutRouter) requireConverged(t *testing.T, local bool, peers ...*viewPeer) {
	t.Helper()
	waitFor(t, 20*time.Second, "the router and its peers to quiesce", func() bool { return f.quiet(peers...) })
	want := tablesView(f.r, local)
	for _, p := range peers {
		if diff := p.diffView(want); diff != "" {
			t.Fatalf("peer %s does not hold the tables: %s", p.sess.RemoteID(), diff)
		}
	}
}

func queueGauge(r *Router, session string) int64 {
	return telemetry.Default().Gauge("bgp_session_out_queue_bytes", telemetry.L("peer", r.Name()+":"+session)).Value()
}

func queueDrops(r *Router, session, reason string) uint64 {
	return telemetry.Default().Counter("bgp_session_out_queue_drops_total",
		telemetry.L("peer", r.Name()+":"+session), telemetry.L("reason", reason)).Value()
}

// gatedPipe is a net.Pipe whose second end can stop reading.
func gatedPipe() (net.Conn, *gatedConn) {
	a, b := net.Pipe()
	return a, &gatedConn{Conn: b}
}

// TestDumpOrderingUnderChurn holds an experiment's (and a backbone
// peer's) reader while its table dump is under way, changes, withdraws
// and adds routes the dump has not reached yet — and one it has — and
// requires the final view to equal the tables. With dumps that collect a
// table first and send it afterwards, the stale copy of a route changed
// in between overwrites the newer incremental export.
func TestDumpOrderingUnderChurn(t *testing.T) {
	const routes = 12000 // ~60 B each on the wire: several times the dump's queue window
	for _, class := range []string{"experiment", "mesh"} {
		t.Run(class, func(t *testing.T) {
			f := newFanoutRouter(t, 1)
			f.load(t, routes)

			near, far := gatedPipe()
			var peer *viewPeer
			var session string
			if class == "experiment" {
				session = "exp:X1"
				if _, err := f.r.ConnectExperiment("X1", expASN, near); err != nil {
					t.Fatal(err)
				}
				peer = newViewPeer(far, expASN, "100.65.0.1", true)
			} else {
				session = "mesh:e2"
				if err := f.r.AddBackbonePeer("e2", ip("100.127.0.2"), near); err != nil {
					t.Fatal(err)
				}
				peer = newViewPeer(far, platformASN, "198.51.100.2", true)
			}
			t.Cleanup(func() { peer.sess.Close() })
			peer.waitEstablished(t)

			// The dump runs until its queue window is full, then waits.
			waitFor(t, 5*time.Second, "the dump to fill its window and wait", func() bool {
				return queueGauge(f.r, session) > 128<<10
			})
			time.Sleep(20 * time.Millisecond)
			if q := queueGauge(f.r, session); q > 384<<10 {
				t.Fatalf("dump queued %d bytes against a reader that is not reading: it does not wait for room", q)
			}

			// Churn while the dump is parked: the last prefixes of the walk
			// (not dumped yet), the first (dumped already), a new one.
			for v := uint32(1); v <= 5; v++ {
				f.announce(t, 0, routes-1, v, false)
				f.announce(t, 0, routes-2, v, false)
				f.announce(t, 0, 0, v, false)
			}
			f.withdraw(t, 0, routes-2)
			f.withdraw(t, 0, routes-3)
			f.withdraw(t, 0, 1)
			f.announce(t, 0, routes+7, 9, false)
			waitFor(t, 5*time.Second, "the router to read the churn", func() bool {
				return f.nbrs[0].Quiesced() && f.ns[0].Session().Quiesced()
			})

			peer.gate.resume()
			peer.waitEndOfRIB(t)
			f.requireConverged(t, class == "mesh", peer)
		})
	}
}

// TestExportsDuringEstablishment connects experiments while a neighbor
// announces new prefixes without pause. Whatever instant each session
// establishes at, a route is either in its dump or exported to it
// afterwards: none is lost in between.
func TestExportsDuringEstablishment(t *testing.T) {
	f := newFanoutRouter(t, 1)
	f.load(t, 500)
	const extra = 4000
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < extra; i++ {
			a := &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("192.0.2.1"),
				ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{n1ASN, uint32(i)}}}}
			if f.nbrs[0].Send(&bgp.Update{Attrs: a, NLRI: []bgp.NLRI{{Prefix: tablePrefix(1000 + i)}}}) != nil {
				return
			}
			if i%64 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	var peers []*viewPeer
	for e := 0; e < 6; e++ {
		cr, ce := pipe.New()
		if _, err := f.r.ConnectExperiment(fmt.Sprintf("X%d", e), expASN+uint32(e), cr); err != nil {
			t.Fatal(err)
		}
		p := newViewPeer(ce, expASN+uint32(e), fmt.Sprintf("100.65.0.%d", e+1), false)
		t.Cleanup(func() { p.sess.Close() })
		peers = append(peers, p)
		time.Sleep(time.Millisecond)
	}
	<-sent
	waitFor(t, 5*time.Second, "tables to hold every route", func() bool { return f.r.RouteCount() == 500+extra })
	for _, p := range peers {
		p.waitEndOfRIB(t)
	}
	f.requireConverged(t, false, peers...)
}

// TestWedgedConsumerSoak is the isolation property of §3.3 on the
// control plane. Of four experiments, one's transport stops accepting
// writes (chaos.StallWrite) and one simply stops reading, first in the
// middle of churn and then — a fifth — in the middle of its table dump.
// Throughout: the neighbor sessions keep applying UPDATEs, the healthy
// experiments converge to the tables, each wedged session (and only it)
// is closed with Cease/Out-of-Resources under the labelled counter once
// its queue reaches the bound, its announcements survive as stale for
// the graceful-restart window, and a redial gets a complete dump.
func TestWedgedConsumerSoak(t *testing.T) {
	const routes = 1500
	f := newFanoutRouter(t, 2)
	f.load(t, routes)
	inj := chaos.New(chaos.Config{})

	type exp struct {
		name   string
		asn    uint32
		router *bgp.Session
		peer   *viewPeer
	}
	connect := func(name string, near net.Conn, far net.Conn, asn uint32, hold bool) *exp {
		t.Helper()
		rs, err := f.r.ConnectExperiment(name, asn, near)
		if err != nil {
			t.Fatal(err)
		}
		e := &exp{name: name, asn: asn, router: rs, peer: newViewPeer(far, asn, "100.65.0.9", hold)}
		t.Cleanup(func() { e.peer.sess.Close() })
		return e
	}
	overPipe := func(name string, asn uint32, wrap bool) *exp {
		cr, ce := pipe.New()
		var near net.Conn = cr
		if wrap {
			near = inj.WrapConn("experiment", name, "", cr)
		}
		return connect(name, near, ce, asn, false)
	}
	healthyA, healthyB := overPipe("A", expASN, false), overPipe("B", expASN+1, false)
	stalled := overPipe("W-stall", expASN+2, true)
	near, far := gatedPipe()
	deaf := connect("W-deaf", near, far, expASN+3, false)
	for _, e := range []*exp{healthyA, healthyB, stalled, deaf} {
		e.peer.waitEstablished(t)
		e.peer.waitEndOfRIB(t)
	}
	f.requireConverged(t, false, healthyA.peer, healthyB.peer, stalled.peer, deaf.peer)

	// Each wedged experiment holds an announcement of its own.
	announceOwn := func(e *exp, prefix string) {
		a := &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("100.65.0.9"),
			ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{e.asn}}}}
		if err := e.peer.sess.Send(&bgp.Update{Attrs: a, NLRI: []bgp.NLRI{{Prefix: pfx(prefix)}}}); err != nil {
			t.Fatal(err)
		}
	}
	announceOwn(stalled, "184.164.224.0/24")
	announceOwn(deaf, "184.164.225.0/24")
	waitFor(t, 5*time.Second, "experiment announcements", func() bool { return f.r.ExperimentRoutes().PathCount() == 2 })

	// churn pushes a little over the queue bound through the fan-out:
	// 4 KB UPDATEs, every one a change the experiments must end up with.
	// It returns once the router has read them all.
	version := uint32(0)
	churn := func() {
		t.Helper()
		version++
		for i := 0; i < 2200; i++ {
			for nbr := range f.nbrs {
				f.announce(t, nbr, i%routes, version, true)
			}
		}
		waitFor(t, 5*time.Second, "the router to read the churn", func() bool {
			q := true
			for i, s := range f.nbrs {
				q = s.Quiesced() && f.ns[i].Session().Quiesced() && q
			}
			return q
		})
	}
	expectDropped := func(e *exp) {
		t.Helper()
		select {
		case <-e.router.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: wedged session still up after its queue passed the bound (%d bytes queued)", e.name, queueGauge(f.r, "exp:"+e.name))
		}
		var ne *bgp.NotificationError
		if err := e.router.Err(); !errors.As(err, &ne) || ne.Code != bgp.ErrCodeCease || ne.Subcode != bgp.CeaseOutOfResources {
			t.Fatalf("%s: session ended with %v, want Cease/Out-of-Resources", e.name, err)
		}
		if got := queueDrops(f.r, "exp:"+e.name, "overflow"); got != 1 {
			t.Fatalf("%s: bgp_session_out_queue_drops_total{reason=overflow} = %d, want 1", e.name, got)
		}
	}
	expectHealthy := func(others ...*viewPeer) {
		t.Helper()
		f.requireConverged(t, false, append(others, healthyA.peer, healthyB.peer)...)
		for _, e := range []*exp{healthyA, healthyB} {
			if e.router.State() != bgp.StateEstablished {
				t.Fatalf("%s: healthy session is %s (%v)", e.name, e.router.State(), e.router.Err())
			}
			if drops := queueDrops(f.r, "exp:"+e.name, "overflow") + queueDrops(f.r, "exp:"+e.name, "stalled"); drops != 0 {
				t.Fatalf("%s: healthy session was dropped %d times", e.name, drops)
			}
		}
	}

	// Wedge two consumers mid-churn.
	if hit := inj.Inject(chaos.Fault{Kind: chaos.StallWrite, Class: "experiment", Name: "W-stall", Duration: time.Minute}); hit != 1 {
		t.Fatalf("stall hit %d conns", hit)
	}
	deaf.peer.gate.hold()
	start := time.Now()
	churn() // returns once the neighbors' UPDATEs are read: nobody waited for the wedged
	t.Logf("16 MiB of churn applied in %s with two consumers wedged", time.Since(start))
	expectDropped(stalled)
	expectDropped(deaf)
	expectHealthy()

	// Their announcements are retained, stale, for the restart window.
	tbl := f.r.ExperimentRoutes()
	if tbl.PathCount() != 2 || tbl.StaleCount("W-stall") != 1 || tbl.StaleCount("W-deaf") != 1 {
		t.Fatalf("wedged experiments' announcements: %d paths, %d + %d stale; want 2, 1 + 1",
			tbl.PathCount(), tbl.StaleCount("W-stall"), tbl.StaleCount("W-deaf"))
	}

	// A redial under the same name gets a complete dump.
	again := overPipe("W-stall", expASN+2, false)
	again.peer.waitEstablished(t)
	again.peer.waitEndOfRIB(t)
	f.requireConverged(t, false, again.peer)

	// Wedge a late joiner in the middle of its dump, churn going on.
	near, far = gatedPipe()
	late := connect("W-late", near, far, expASN+4, true)
	late.peer.waitEstablished(t)
	waitFor(t, 5*time.Second, "the late joiner's dump to start", func() bool { return queueGauge(f.r, "exp:W-late") > 0 })
	churn()
	expectDropped(late)
	expectHealthy(again.peer)
}
