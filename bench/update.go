package main

import (
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
)

const (
	platformASN  = 47065
	neighborASN0 = 65001
	expASN0      = 61574
	// fenceTimeout bounds every wait for delivery; hitting it is a
	// failed operation, never a retry.
	fenceTimeout = 30 * time.Second
	// loadWindow is how many UPDATEs the table load keeps in flight, so
	// pipe backlogs (and the arrays they retain) stay small and
	// mem_bytes_per_route does not depend on who outran whom.
	loadWindow = 512
)

// updateShape is the update path's share of a workload.
type updateShape struct {
	neighbors     int
	routesPerNbr  int
	nlriPerUpdate int
	experiments   int
	// activeNbrs neighbors churn in a round, routesPerRound in total,
	// rotating over all neighbors.
	activeNbrs     int
	routesPerRound int
	mix            churnMix
	// isolated marks a table large enough that its heap would tax every
	// collection in the other paths: the update path then runs alone.
	isolated bool
	// dumpJoins joins make one dump round, so a round moves enough
	// routes to time even when the table is small.
	dumpJoins int
}

func (s updateShape) routes() int { return s.neighbors * s.routesPerNbr }

// updateSink is what every experiment-side session reports into.
type updateSink struct {
	routesPerNbr int
	delivered    atomic.Int64 // table routes (announced or withdrawn) seen by any experiment
	sentinels    atomic.Int64
	// want is the sentinel (rounds) or delivered (samples) count that
	// completes the current wait; lastAt is stamped by the callback that
	// reaches it, so the waiter's wake-up is not part of the latency.
	wantSentinels atomic.Int64
	wantDelivered atomic.Int64
	lastAt        atomic.Int64 // ns since epoch of the completing callback
	gate          *gate
	epoch         time.Time
}

func (k *updateSink) complete() {
	k.lastAt.Store(int64(time.Since(k.epoch)))
	k.gate.open()
}

// expPeer is the bench's end of one experiment session: a real ADD-PATH
// bgp.Session whose OnUpdate maintains the experiment's view, indexed
// [neighbor][table index] so the callback allocates nothing.
type expPeer struct {
	sess *bgp.Session
	// routerSess is the router's end, as ConnectExperiment returns it.
	routerSess *bgp.Session
	view       [][]uint64
	// firstRouteAt is when the first table route arrived (dump probe).
	firstRouteAt atomic.Int64
	routes       atomic.Int64
}

func (p *expPeer) onUpdate(k *updateSink, u *bgp.Update) {
	var n, sentinels int64
	for _, w := range u.Withdrawn {
		if i, ok := tableIndex(w.Prefix, k.routesPerNbr); ok {
			p.view[w.ID-1][i] = 0
			n++
		}
	}
	if len(u.NLRI) > 0 {
		h := attrsHash(u.Attrs)
		for _, r := range u.NLRI {
			if i, ok := tableIndex(r.Prefix, k.routesPerNbr); ok {
				p.view[r.ID-1][i] = h
				n++
			} else if r.Prefix == sentinelPrefix {
				sentinels++
			}
		}
	}
	if n > 0 {
		if p.routes.Add(n) == n {
			p.firstRouteAt.Store(int64(time.Since(k.epoch)))
		}
		if k.delivered.Add(n) == k.wantDelivered.Load() {
			k.complete()
		}
	}
	if sentinels > 0 && k.sentinels.Add(sentinels) == k.wantSentinels.Load() {
		k.complete()
	}
}

// updatePath is one core.Router with its neighbors and experiments, all
// reached through real bgp.Sessions over pipe.Conn.
type updatePath struct {
	shape  updateShape
	router *core.Router
	nbrs   []*bgp.Session
	gens   []*updateGen
	exps   []*expPeer
	sink   *updateSink
	rec    *recorder // nil when untraced

	// Pre-built rounds: updates[n] is neighbor slot n's block, refilled in
	// place before each round so the timed window allocates nothing here.
	updates   [][]bgp.Update
	sentinel  []bgp.Update
	probe     bgp.Update // the latency sample's UPDATE, refilled in place
	rotate    int
	sentRound int64
	samples   int

	attempted, failed int64
}

// waitEstablished polls until every session is Established. Set-up only:
// nothing is timed across it.
func waitEstablished(sessions ...*bgp.Session) error {
	deadline := time.Now().Add(fenceTimeout)
	for _, s := range sessions {
		for s.State() != bgp.StateEstablished {
			if time.Now().After(deadline) {
				return fmt.Errorf("session did not establish (state %s)", s.State())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// newNeighborLAN attaches a router interface and one ARP-answering port
// per neighbor to a fresh segment, so the router's MAC resolution on
// session establishment succeeds at once. handler receives what the
// router forwards to the ports (nil to discard).
func newNeighborLAN(r *core.Router, ifcName string, routerAddr netip.Prefix, n int, addr func(i int) netip.Addr,
	handler netsim.Handler) []*netsim.Interface {
	seg := netsim.NewSegment(r.Name() + "-" + ifcName)
	r.AddInterface(ifcName, "neighbor", routerAddr, seg)
	ports := make([]*netsim.Interface, n)
	for i := range ports {
		p := netsim.NewInterface(fmt.Sprintf("%s-port%d", ifcName, i), ethernet.MAC{0x02, 0xa5, 0, 0, byte(i >> 8), byte(i)})
		p.AddAddr(addr(i))
		if handler != nil {
			p.SetHandler(handler)
		}
		p.Attach(seg)
		ports[i] = p
	}
	return ports
}

func nbrAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i + 1)}) }

// newUpdatePath prepares the path's inputs and sinks. epoch is the run's
// (and the recorder's) time base, so a sampled operation's root span and
// the spans the conns record under it are on one clock.
func newUpdatePath(seed int64, sh updateShape, rec *recorder, epoch time.Time) (*updatePath, error) {
	if per := sh.routesPerRound / sh.activeNbrs / sh.nlriPerUpdate; per > sh.routesPerNbr/sh.nlriPerUpdate {
		// A round pre-builds its UPDATEs against attributes mutated in
		// place, so it must not visit one attribute set twice.
		return nil, fmt.Errorf("update shape: %d events per neighbor per round exceed its %d attribute sets", per, sh.routesPerNbr/sh.nlriPerUpdate)
	}
	u := &updatePath{shape: sh, rec: rec}
	u.sink = &updateSink{routesPerNbr: sh.routesPerNbr, gate: newGate(), epoch: epoch}
	for n := 0; n < sh.neighbors; n++ {
		u.gens = append(u.gens, newUpdateGen(seed*1000+int64(n), neighborASN0+uint32(n), nbrAddr(n), sh.routesPerNbr, sh.nlriPerUpdate, sh.mix))
	}
	perNbr := sh.routesPerRound / sh.activeNbrs / sh.nlriPerUpdate
	u.updates = make([][]bgp.Update, sh.activeNbrs)
	for i := range u.updates {
		u.updates[i] = make([]bgp.Update, perNbr)
	}
	u.sentinel = make([]bgp.Update, sh.neighbors)
	for n := range u.sentinel {
		u.sentinel[n] = bgp.Update{
			Attrs: &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: nbrAddr(n), HasMED: true,
				ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{neighborASN0 + uint32(n)}}}},
			NLRI: []bgp.NLRI{{Prefix: sentinelPrefix}},
		}
	}
	// Experiment views exist before the memory baseline is taken, so
	// they are not billed to the router.
	for e := 0; e < sh.experiments+1; e++ {
		u.exps = append(u.exps, u.newExpPeer())
	}
	return u, nil
}

func (u *updatePath) newExpPeer() *expPeer {
	p := &expPeer{view: make([][]uint64, u.shape.neighbors)}
	for n := range p.view {
		p.view[n] = make([]uint64, u.shape.routesPerNbr)
	}
	return p
}

// build creates the router and its neighbor sessions (no routes yet).
func (u *updatePath) build() error {
	u.router = core.NewRouter(core.Config{Name: "bench", ASN: platformASN, RouterID: netip.MustParseAddr("10.255.0.1")})
	newNeighborLAN(u.router, "nbr0", netip.MustParsePrefix("198.18.255.254/16"), u.shape.neighbors, nbrAddr, nil)
	for n := 0; n < u.shape.neighbors; n++ {
		routerEnd, peerEnd := pipe.New()
		var conn net.Conn = routerEnd
		if u.rec != nil {
			conn = u.rec.wrap(conn, spanNbrRead, "")
		}
		if _, err := u.router.AddNeighbor(core.NeighborConfig{
			Name: fmt.Sprintf("n%d", n), ID: uint32(n + 1), ASN: neighborASN0 + uint32(n),
			Addr: nbrAddr(n), Interface: "nbr0", Conn: conn,
		}); err != nil {
			return err
		}
		s := bgp.NewSession(peerEnd, bgp.Config{LocalASN: neighborASN0 + uint32(n), RemoteASN: platformASN, LocalID: nbrAddr(n)})
		go s.Run()
		u.nbrs = append(u.nbrs, s)
	}
	return waitEstablished(u.nbrs...)
}

// connectExperiment attaches experiment slot e and waits for the
// End-of-RIB that closes its table dump. It returns the time from
// ConnectExperiment to End-of-RIB.
func (u *updatePath) connectExperiment(e int, name string) (time.Duration, error) {
	p := u.exps[e]
	routerEnd, peerEnd := pipe.New()
	var conn net.Conn = routerEnd
	if u.rec != nil {
		conn = u.rec.wrap(conn, "", spanExpWrite)
	}
	asn := uint32(expASN0 + e)
	eor := make(chan struct{}, 1)
	p.sess = bgp.NewSession(peerEnd, bgp.Config{
		LocalASN: asn, RemoteASN: platformASN, LocalID: netip.AddrFrom4([4]byte{100, 65, 0, byte(e + 1)}),
		Families: []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSendReceive,
			bgp.IPv6Unicast: bgp.AddPathSendReceive,
		},
		OnUpdate: func(up *bgp.Update) { p.onUpdate(u.sink, up) },
		// The IPv4 marker follows the last table route; the IPv6 one
		// follows it and carries nothing here.
		OnEndOfRIB: func(f bgp.AFISAFI) {
			if f == bgp.IPv4Unicast {
				eor <- struct{}{}
			}
		},
	})
	start := time.Now()
	var err error
	if p.routerSess, err = u.router.ConnectExperiment(name, asn, conn); err != nil {
		return 0, err
	}
	go p.sess.Run()
	select {
	case <-eor:
		return time.Since(start), nil
	case <-time.After(fenceTimeout):
		return 0, fmt.Errorf("experiment %s: no End-of-RIB", name)
	}
}

// fence sends the sentinel last on each listed neighbor session and
// waits until every connected experiment has seen all of them.
func (u *updatePath) fence(connected int, nbrs []int) bool {
	u.sentRound++
	u.sink.wantSentinels.Store(u.sink.sentinels.Load() + int64(connected*len(nbrs)))
	for _, n := range nbrs {
		u.sentinel[n].Attrs.MED = uint32(u.sentRound)
		if err := u.nbrs[n].Send(&u.sentinel[n]); err != nil {
			return false
		}
	}
	return u.sink.gate.wait()
}

// load announces every neighbor's whole table through the fan-out, a
// window at a time.
func (u *updatePath) load(connected int) error {
	all := make([]int, u.shape.neighbors)
	for n := range all {
		all[n] = n
	}
	var up bgp.Update
	groups := len(u.gens[0].groups)
	for start := 0; start < groups; start += loadWindow {
		for n, g := range u.gens {
			for gi := start; gi < min(start+loadWindow, groups); gi++ {
				g.announce(gi, &up)
				if err := u.nbrs[n].Send(&up); err != nil {
					return err
				}
			}
		}
		if !u.fence(connected, all) {
			return fmt.Errorf("table load: fence timed out at group %d", start)
		}
	}
	return nil
}

// prepareRound refills the pre-built blocks with the next churn events
// and returns the neighbors that will send them and the routes carried.
func (u *updatePath) prepareRound() (active []int, routes int) {
	for slot := range u.updates {
		n := (u.rotate + slot) % u.shape.neighbors
		active = append(active, n)
		for i := range u.updates[slot] {
			routes += u.gens[n].next(&u.updates[slot][i])
		}
	}
	u.rotate = (u.rotate + u.shape.activeNbrs) % u.shape.neighbors
	return active, routes
}

// sendRound is the timed body of a throughput round: one goroutine
// writes the blocks round-robin over the active neighbor sessions, then
// fences. It reports whether the fence held.
func (u *updatePath) sendRound(connected int, active []int) bool {
	for i := range u.updates[0] {
		for slot, n := range active {
			if err := u.nbrs[n].Send(&u.updates[slot][i]); err != nil {
				return false
			}
		}
	}
	return u.fence(connected, active)
}

// throughputRound runs one prepared, collected, timed round and checks
// the delivered-route count exactly.
func (u *updatePath) throughputRound(s *roundSeries, connected int) time.Duration {
	active, routes := u.prepareRound()
	before := u.sink.delivered.Load()
	var fenced bool
	elapsed := s.timed(routes, func() { fenced = u.sendRound(connected, active) })
	got := u.sink.delivered.Load() - before
	want := int64(routes * connected)
	u.attempted += want
	if !fenced {
		u.failed += want
	} else if got != want {
		u.failed += abs64(want - got)
	}
	return elapsed
}

// sample times one single-UPDATE change on a quiescent router from
// neighbor.Send to the last experiment's OnUpdate, in microseconds. A
// negative result is a lost update.
func (u *updatePath) sample(connected int) float64 {
	u.samples++
	n := u.samples % u.shape.neighbors
	routes := u.gens[n].next(&u.probe)
	u.attempted += int64(routes * connected)
	u.sink.wantDelivered.Store(u.sink.delivered.Load() + int64(routes*connected))
	traced := u.rec.active()
	if traced {
		u.rec.beginOp(opUpdate)
	}
	start := time.Since(u.sink.epoch)
	if err := u.nbrs[n].Send(&u.probe); err != nil || !u.sink.gate.wait() {
		u.failed += int64(routes * connected)
		return -1
	}
	end := time.Duration(u.sink.lastAt.Load())
	if traced {
		u.rec.endOp(int64(start), int64(end))
	}
	return float64(end-start) / 1e3
}

// disconnectExperiment closes slot e from the router's side (an
// administrative close unregisters the experiment before it returns, so
// the name is free for the next join) and waits for the bench's end.
func (u *updatePath) disconnectExperiment(e int) {
	p := u.exps[e]
	p.routerSess.Close()
	<-p.sess.Done()
}

// dumpRound joins a late experiment dumpJoins times: ConnectExperiment →
// End-of-RIB, session closed between joins. It appends each join's time
// to the first table route (ms) to firstBlock.
func (u *updatePath) dumpRound(slot int, firstBlock *[]float64) error {
	p := u.exps[slot]
	want := int64(u.router.RouteCount() - u.shape.neighbors) // sentinels are not table routes
	for j := 0; j < u.shape.dumpJoins; j++ {
		p.routes.Store(0)
		for _, v := range p.view { // a late joiner knows nothing
			clear(v)
		}
		start := time.Since(u.sink.epoch)
		if _, err := u.connectExperiment(slot, "joiner"); err != nil {
			return err
		}
		*firstBlock = append(*firstBlock, float64(time.Duration(p.firstRouteAt.Load())-start)/1e6)
		u.attempted += want
		u.failed += abs64(want - p.routes.Load())
		u.disconnectExperiment(slot)
	}
	return nil
}

// checkViews compares every connected experiment's view with what the
// generated stream says it must hold: the same set of (prefix, path id)
// with the same AS path and communities.
func (u *updatePath) checkViews(h *harness, slots ...int) {
	for _, e := range slots {
		bad := 0
		for n, g := range u.gens {
			for i, want := range g.expected {
				if u.exps[e].view[n][i] != want {
					bad++
				}
			}
		}
		if bad > 0 {
			h.problem("update path: experiment %d's view differs from the generated stream in %d routes", e, bad)
		}
	}
}

// close tears the path down so the next path measures on a clean heap.
func (u *updatePath) close(connected []int) {
	for _, e := range connected {
		u.disconnectExperiment(e)
	}
	for _, s := range u.nbrs {
		s.Close()
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

const opUpdate = "update-op"

// prepareUpdatePath builds the workload's router, loads it, and returns
// the update path's timed phases. An untraced run reports their counts
// (the end-to-end metrics); a traced run their rates, and then what the
// boundaries the benchmark owns say about the layers.
func prepareUpdatePath(h *harness, sh shape) (*pathRun, error) {
	us, w := sh.update, sh.weights
	setupStart := time.Now()
	u, err := newUpdatePath(h.opt.seed, us, h.rec, h.opt.processStart)
	if err != nil {
		return nil, err
	}
	base := liveHeap()
	if err := u.build(); err != nil {
		return nil, err
	}
	// A traced run starts with one experiment, for the cost-per-experiment
	// slope; the rest join once that point is measured.
	connected := 0
	join := func(upTo int) error {
		for e := connected; e < upTo; e++ {
			if _, err := u.connectExperiment(e, fmt.Sprintf("exp%d", e)); err != nil {
				return err
			}
		}
		connected = upTo
		return nil
	}
	first := us.experiments
	if h.opt.trace {
		first = 1
	}
	if err := join(first); err != nil {
		return nil, err
	}
	if err := u.load(connected); err != nil {
		return nil, err
	}
	// Fresh snapshots, so no background rebuild is holding scratch tries
	// while the heap is read.
	for _, n := range u.router.Neighbors() {
		n.Table.BuildSnapshot()
	}
	mem := float64(liveHeap()-base) / float64(us.routes())
	var warm roundSeries
	u.throughputRound(&warm, connected) // snapshot builders, pools and buffers reach steady state
	var firstBlock []float64
	spare := us.experiments
	if err := u.dumpRound(spare, &firstBlock); err != nil { // the first join pays for growing every buffer
		return nil, err
	}
	firstBlock = firstBlock[:0]
	h.addSetup("update", time.Since(setupStart))

	// A traced run measures the slope's points first: the cost of a route
	// at one experiment, then (a one-experiment workload borrows the spare
	// slot for it) at two or at the workload's E, which is the churn phase.
	k := h.extraRounds()
	var one, two roundSeries
	if h.opt.trace {
		for i := 0; i < k; i++ {
			u.throughputRound(&one, connected)
		}
		if us.experiments == 1 {
			if err := join(2); err != nil {
				return nil, err
			}
			for i := 0; i < k; i++ {
				u.throughputRound(&two, connected)
			}
			u.disconnectExperiment(1)
			connected = 1
		} else if err := join(us.experiments); err != nil {
			return nil, err
		}
	}

	// The two timed activities: churn rounds, and the late joiner, a read
	// of the tables the churn writes.
	var rounds, dumps roundSeries
	var dumpErr error
	churn := &phase{weight: w.update, step: func() { u.throughputRound(&rounds, connected) }}
	dump := &phase{weight: w.dump, step: func() {
		routes := (u.router.RouteCount() - us.neighbors) * us.dumpJoins
		dumps.timed(routes, func() {
			if err := u.dumpRound(spare, &firstBlock); err != nil && dumpErr == nil {
				dumpErr = err
			}
		})
		// Withdrawn routes are absent from the tables, so what a join
		// dumps must equal the expectation too.
		u.checkViews(h, spare)
	}}
	run := &pathRun{phases: []*phase{churn, dump}}
	run.finish = func() error {
		if dumpErr != nil {
			return dumpErr
		}
		h.rate("core.update_routes_per_s", &rounds)
		h.rate("core.dump_routes_per_s", &dumps)
		if h.opt.trace {
			slope := &rounds
			if us.experiments == 1 {
				slope = &two
			}
			perExp := float64(max(us.experiments, 2) - 1)
			h.set("core.export_ns_per_route_per_exp", (1e9/slope.rate()-1e9/one.rate())/perExp)
			h.set("core.export_allocs_per_route_per_exp", (median(slope.allocs)-median(one.allocs))/perExp)
			h.set("core.dump_first_block_ms", median(firstBlock))
			h.carry.memBytesPerRoute = mem
			u.tracedExtras(h, connected, k)
		} else {
			h.set("update_allocs_per_route", median(rounds.allocs))
			h.set("dump_allocs_per_route", median(dumps.allocs))
			h.set("mem_bytes_per_route", mem)
		}
		slots := make([]int, connected)
		for e := range slots {
			slots[e] = e
		}
		u.checkViews(h, slots...)
		h.ops(u.attempted, u.failed)
		u.close(slots)
		return nil
	}
	return run, nil
}

// tracedExtras turns the recorder on: k more churn rounds for the
// counters on the experiment conns, each beside a round with it off for
// what the recorder itself costs, then single-UPDATE samples for the
// latency and the spans.
func (u *updatePath) tracedExtras(h *harness, connected, k int) {
	defer h.rec.off.Store(true)
	var traced, untraced roundSeries
	var inRounds time.Duration
	var routes int64
	for i := 0; i < k; i++ {
		h.rec.off.Store(true)
		u.throughputRound(&untraced, connected)
		h.rec.off.Store(false)
		delivered := u.sink.delivered.Load()
		inRounds += u.throughputRound(&traced, connected)
		routes += u.sink.delivered.Load() - delivered
	}
	// The recorder counts on the experiment conns only while it is on.
	h.set("pipe.write_wait_frac", float64(h.rec.expWriteNs.Load())/float64(inRounds))
	h.set("bgp.wire_bytes_per_route", float64(h.rec.expWriteBytes.Load())/float64(routes))
	h.set("bgp.writes_per_route", float64(h.rec.expWrites.Load())/float64(routes))
	// Each recorder-on round against the recorder-off round just before
	// it: the machine's drift over the run is not in the ratio.
	ratios := make([]float64, k)
	for i := range ratios {
		ratios[i] = traced.perSec[i] / untraced.perSec[i]
	}
	h.set("bench.trace_overhead_frac", 1-median(ratios))
	fmt.Printf("extra churn rounds: recorder off %.0f, on %.0f\n", untraced.perSec, traced.perSec)

	// Single-UPDATE latency on the now quiescent router, on both procs as
	// everything else: first with the recorder off, for the p50, then with
	// it on, for the spans.
	sampleN := func() (samples []float64) {
		for i := 0; i < h.opt.samples; i++ {
			if v := u.sample(connected); v >= 0 {
				samples = append(samples, v)
			}
		}
		return samples
	}
	h.rec.off.Store(true)
	h.latency("core.update_propagate_p50_us", sampleN())
	h.rec.off.Store(false)
	sampleN()
	ingest, fanout, _ := h.rec.fanoutTimes(opUpdate, spanNbrRead, spanExpWrite)
	h.set("core.ingest_to_export_us", ingest)
	h.set("core.fanout_span_us", fanout)
}
