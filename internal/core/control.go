package core

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/guard"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/rib"
	"repro/internal/rpki"
	"repro/internal/telemetry"
)

const arpTimeout = 2 * time.Second

// meshExpFlag marks experiment-route NLRIs on backbone sessions,
// separating their version IDs from neighbor platform IDs.
const meshExpFlag bgp.PathID = 1 << 31

// handleNeighborUpdate processes an UPDATE from a local external
// neighbor: it stores routes in the neighbor's own table with forwarding
// next hops, mirrors them into the optional default table, re-advertises
// them to every experiment with the next hop rewritten to the neighbor's
// LocalIP and the neighbor's ID as the ADD-PATH identifier (§3.2.1,
// Fig. 2a), and relays them into the backbone mesh with the neighbor's
// GlobalIP as next hop (§4.4).
//
// RIB mutations and downstream exports are batched: the UPDATE's NLRIs
// are installed/removed with one shard-lock acquisition per shard
// (rib.Table.AddBatch/WithdrawBatch), and all resulting exports leave
// as one block per destination class (exportCollector).
//
// The decoded UPDATE and its NLRI lists are lent by the session until
// this returns; its attribute set belongs to this function: it is
// stored as is, shared by every route the UPDATE carries, and never
// written again once stored.
func (r *Router) handleNeighborUpdate(n *Neighbor, u *bgp.Update) {
	r.updatesProcessed.Add(1)
	defer r.syncNeighborRoutesGauge(n)
	var remoteID netip.Addr
	if sess := n.Session(); sess != nil {
		remoteID = sess.RemoteID()
	}
	col := r.newCollector()
	defer col.release()
	monitored := r.cfg.Monitor != nil

	withdrawn := u.Withdrawn
	if len(u.MPUnreach) > 0 {
		withdrawn = append(withdrawn[:len(withdrawn):len(withdrawn)], u.MPUnreach...)
	}
	if len(withdrawn) > 0 {
		reqs := col.reqs[:0]
		for _, w := range withdrawn {
			reqs = append(reqs, rib.WithdrawRequest{Prefix: w.Prefix, Peer: n.Name, ID: w.ID})
		}
		col.reqs = reqs
		removed := n.Table.WithdrawBatch(reqs)
		for i, w := range withdrawn {
			if removed[i] == nil {
				continue
			}
			suppressed, _ := r.dampNeighborRoute(n, w.Prefix, false)
			if monitored {
				r.emit(telemetry.Event{
					Kind: telemetry.EventRouteMonitoring, Peer: n.Name, PeerASN: n.ASN,
					Prefix: w.Prefix, PathID: uint32(w.ID), Withdraw: true,
				})
			}
			if r.defaultTable != nil {
				r.defaultTable.Withdraw(w.Prefix, n.Name, w.ID)
			}
			// Export the surviving best path (route servers hold several
			// paths per prefix), or a withdrawal if none remains — or if
			// damping suppressed the route, in which case downstream must
			// stop using it even though the adj-RIB-in keeps what's left.
			if best := n.Table.Best(w.Prefix); best != nil && !suppressed {
				col.exportToExperiments(n, w.Prefix, best.Attrs, false)
				col.exportToMesh(n, w.Prefix, best.Attrs, false)
			} else {
				col.exportToExperiments(n, w.Prefix, nil, true)
				col.exportToMesh(n, w.Prefix, nil, true)
			}
		}
	}

	// Announcements: build the accepted paths first, install them as one
	// batch per table, then run damping, telemetry, and export per NLRI
	// against the settled table state.
	//
	// AS-path loop prevention (RFC 4271 §9.1.2): a path already carrying
	// the platform's ASN is one of our own announcements reflected back —
	// accepting it would loop it into every experiment's view.
	count := len(u.NLRI) + len(u.MPReach)
	if count == 0 || u.Attrs == nil || u.Attrs.PathContains(r.cfg.ASN) {
		return
	}
	// Forwarding next hop: the neighbor itself for a direct adjacency;
	// route servers are transparent, so their routes keep the announcing
	// member's next hop (RFC 7947). IPv6 routes keep the set as received,
	// so an UPDATE carrying both families needs the one copy made here.
	v4Attrs, v6Attrs := u.Attrs, u.Attrs
	if len(u.NLRI) > 0 && !n.RouteServer {
		if len(u.MPReach) > 0 {
			c := *u.Attrs
			v4Attrs = &c
		}
		v4Attrs.NextHop = n.Addr
	}
	from := n.peerInfo(n.Addr, remoteID)
	batch := col.batch[:0]
	admit := func(nlri bgp.NLRI, attrs *bgp.PathAttrs) {
		batch = append(batch, &rib.Path{
			Prefix: nlri.Prefix, ID: nlri.ID, Peer: n.Name, Attrs: attrs,
			EBGP: true, Seq: rib.NextSeq(), From: from,
		})
	}
	for _, nlri := range u.NLRI {
		admit(nlri, v4Attrs)
	}
	for _, nlri := range u.MPReach {
		admit(nlri, v6Attrs)
	}
	col.batch = batch
	n.Table.AddBatch(batch)
	if r.defaultTable != nil {
		mirror := make([]*rib.Path, len(batch))
		for i, p := range batch {
			dp := *p
			mirror[i] = &dp
		}
		r.defaultTable.AddBatch(mirror)
	}
	for _, p := range batch {
		suppressed, entered := r.dampNeighborRoute(n, p.Prefix, true)
		if monitored {
			r.emit(telemetry.Event{
				Kind: telemetry.EventRouteMonitoring, Peer: n.Name, PeerASN: n.ASN,
				Prefix: p.Prefix, PathID: uint32(p.ID),
				NextHop: p.Attrs.NextHop, ASPath: p.Attrs.ASPathFlat(),
			})
		}
		switch {
		case suppressed && entered:
			// The flap that crossed the suppress threshold: retract the
			// route downstream; the adj-RIB-in copy stays for reuse.
			r.logf("damping: suppressing %s from %s", p.Prefix, n.Name)
			col.exportToExperiments(n, p.Prefix, nil, true)
			col.exportToMesh(n, p.Prefix, nil, true)
		case suppressed:
			// Still suppressed: withhold, and spare downstream the churn.
		default:
			if best := n.Table.Best(p.Prefix); best != nil {
				col.exportToExperiments(n, p.Prefix, best.Attrs, false)
				col.exportToMesh(n, p.Prefix, best.Attrs, false)
			}
		}
	}
}

// dampNeighborRoute registers one flap (announce or withdraw) of a
// neighbor route with the damper. It reports whether the route is
// suppressed and whether this flap was the one that crossed the
// suppress threshold (so callers retract downstream exactly once).
// Suppressed routes are marked in the adj-RIB-in — never removed: they
// must survive the suppression window to be reusable after decay.
func (r *Router) dampNeighborRoute(n *Neighbor, prefix netip.Prefix, announce bool) (suppressed, entered bool) {
	if r.damper == nil {
		return false, false
	}
	key := guard.Key{Peer: n.Name, Prefix: prefix}
	was := r.damper.Suppressed(key)
	if announce {
		suppressed, _ = r.damper.Announce(key)
	} else {
		suppressed, _ = r.damper.Withdraw(key)
	}
	if suppressed {
		n.Table.MarkDamped(prefix, n.Name, true)
	}
	return suppressed, suppressed && !was
}

// exportList is a run of routes on its way to one class of sessions
// (experiments, or backbone peers), each with the attribute set that
// class is to see. A rewritten set is a shallow copy of the stored one
// with the next hop (and validation stamp) replaced: stored attributes
// are never modified in place, so the copy may share their slices, and
// it only has to live until the block is encoded. Consecutive routes
// from one stored set share one copy — pointer-equal, which is what the
// block encoder packs into a single UPDATE.
type exportList struct {
	routes []bgp.Route
	attrs  []bgp.PathAttrs // the rewritten sets routes point into

	// The last rewrite and what it was made from.
	src *bgp.PathAttrs
	nbr *Neighbor
	v6  bool
	rov rpki.State
	out *bgp.PathAttrs
}

// withdraw adds the withdrawal of neighbor n's route for prefix.
func (l *exportList) withdraw(n *Neighbor, prefix netip.Prefix) {
	l.routes = append(l.routes, bgp.Route{NLRI: bgp.NLRI{Prefix: prefix, ID: bgp.PathID(n.ID)}})
}

// advertise adds neighbor n's route for prefix under attrs rewritten by
// rewrite, which is only called when the previous route's copy cannot
// be reused (rov is the route's validation state where the class is
// stamped with one, zero otherwise).
func (l *exportList) advertise(n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs, rov rpki.State, rewrite func(out *bgp.PathAttrs, v6 bool)) {
	v6 := prefix.Addr().Is6()
	if l.out == nil || l.src != attrs || l.nbr != n || l.v6 != v6 || l.rov != rov {
		l.attrs = append(l.attrs, *attrs)
		l.src, l.nbr, l.v6, l.rov, l.out = attrs, n, v6, rov, &l.attrs[len(l.attrs)-1]
		rewrite(l.out, v6)
	}
	l.routes = append(l.routes, bgp.Route{NLRI: bgp.NLRI{Prefix: prefix, ID: bgp.PathID(n.ID)}, Attrs: l.out})
}

// reset empties the list for reuse, dropping its references.
func (l *exportList) reset() {
	clear(l.routes)
	clear(l.attrs)
	*l = exportList{routes: l.routes[:0], attrs: l.attrs[:0]}
}

// toExperiments adds one route of neighbor n (or its withdrawal) as
// experiments see it: next hop rewritten to the neighbor's local pool
// address, the neighbor ID as the ADD-PATH path ID, the RPKI validation
// state stamped on when a validator is configured.
func (r *Router) toExperiments(l *exportList, n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs, withdraw bool) {
	if withdraw {
		l.withdraw(n, prefix)
		return
	}
	r.metrics.nexthopRewrites.Inc()
	st := r.validationState(n, prefix, attrs)
	l.advertise(n, prefix, attrs, st, func(out *bgp.PathAttrs, v6 bool) {
		if r.cfg.Validator != nil {
			out.LargeCommunities = stampValidation(r.cfg.ASN, attrs.LargeCommunities, st)
		}
		if v6 {
			out.MPNextHop, out.NextHop = localIP6(n.GlobalIP), netip.Addr{}
		} else {
			out.NextHop = n.LocalIP
		}
	})
}

// toMesh adds one locally learned neighbor route (or its withdrawal) as
// backbone peers see it: the neighbor's GlobalIP as next hop and its
// platform ID as the path ID, so remote PoPs can reconstruct
// per-neighbor tables (Fig. 5).
func (r *Router) toMesh(l *exportList, n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs, withdraw bool) {
	if withdraw {
		l.withdraw(n, prefix)
		return
	}
	l.advertise(n, prefix, attrs, 0, func(out *bgp.PathAttrs, v6 bool) {
		if v6 {
			out.MPNextHop, out.NextHop = localIP6(n.GlobalIP), netip.Addr{}
		} else {
			out.NextHop = n.GlobalIP
		}
	})
}

// exportChunk is how many routes a collector gathers per class before
// it fans them out: enough to amortize a fan-out's fixed costs (the
// session snapshot, one queue lock per session) to nothing, few enough
// that a session loss withdrawing a whole table streams out in blocks
// and the collector's buffers stay small enough to pool.
const exportChunk = 512

// exportCollector accumulates the experiment- and mesh-facing routes
// produced while processing one inbound event and fans each class's run
// out as one block (bgp.FanOut): built once, encoded once, the bytes
// appended to every session's output queue. Nothing here touches a
// session's transport or waits for a peer, so the goroutine processing
// the event — a neighbor's read loop, a timer — is never held up by an
// experiment that does not read.
//
// A route exported while a destination session is not yet Established is
// not lost to it: the session turns Established before its table dump
// reads the first route, and the fan-out looks at the session after the
// table was changed, so either the fan-out sees it Established or the
// dump sees the change.
type exportCollector struct {
	r         *Router
	exp, mesh exportList
	sessions  []*bgp.Session // fan-out scratch
	// The handled UPDATE's paths and withdrawal requests (scratch).
	batch []*rib.Path
	reqs  []rib.WithdrawRequest
	// Destination existence is checked once per collection so a fan-out
	// with no experiments (or no mesh peers) costs nothing per route.
	expChecked, meshChecked bool
	haveExp, haveMesh       bool
}

var collectorPool = sync.Pool{New: func() any { return new(exportCollector) }}

// newCollector checks a collector out; release sends what it gathered
// and returns it.
func (r *Router) newCollector() *exportCollector {
	c := collectorPool.Get().(*exportCollector)
	c.r = r
	return c
}

func (c *exportCollector) release() {
	c.flush()
	clear(c.batch)
	clear(c.reqs)
	*c = exportCollector{exp: c.exp, mesh: c.mesh, sessions: c.sessions, batch: c.batch[:0], reqs: c.reqs[:0]}
	collectorPool.Put(c)
}

// exportToExperiments queues one route (or withdrawal) from neighbor n
// for every connected experiment.
func (c *exportCollector) exportToExperiments(n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs, withdraw bool) {
	if withdraw {
		c.r.forgetValidation(n, prefix)
	}
	if !c.expChecked {
		c.expChecked = true
		c.haveExp = len(c.r.topo.Load().experiments) > 0
	}
	if !c.haveExp {
		return
	}
	c.r.toExperiments(&c.exp, n, prefix, attrs, withdraw)
	if len(c.exp.routes) >= exportChunk {
		c.flush()
	}
}

// exportToMesh queues one locally learned neighbor route (or
// withdrawal) for every backbone peer.
func (c *exportCollector) exportToMesh(n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs, withdraw bool) {
	if !c.meshChecked {
		c.meshChecked = true
		c.haveMesh = len(c.r.topo.Load().meshPeers) > 0
	}
	if !c.haveMesh {
		return
	}
	c.r.toMesh(&c.mesh, n, prefix, attrs, withdraw)
	if len(c.mesh.routes) >= exportChunk {
		c.flush()
	}
}

// flush fans the accumulated runs out and empties the collector. The
// destination sessions are looked up now, after the table changes the
// routes describe (see the type's comment).
func (c *exportCollector) flush() {
	r := c.r
	if len(c.exp.routes) > 0 {
		for _, e := range r.topo.Load().experiments {
			c.sessions = append(c.sessions, e.session)
		}
		r.metrics.addPathExports.Add(uint64(c.fanOut(&c.exp, "experiments")))
	}
	if len(c.mesh.routes) > 0 {
		for _, p := range r.topo.Load().meshPeers {
			if s := p.sess(); s != nil {
				c.sessions = append(c.sessions, s)
			}
		}
		c.fanOut(&c.mesh, "backbone peers")
	}
}

// fanOut sends l to the sessions gathered in c.sessions and empties
// both. It returns the number of route exports made (routes × sessions
// that took them).
func (c *exportCollector) fanOut(l *exportList, class string) int {
	took, err := bgp.FanOut(c.sessions, l.routes)
	if err != nil {
		c.r.logf("export to %s: %v", class, err)
	}
	exports := took * len(l.routes)
	l.reset()
	clear(c.sessions)
	c.sessions = c.sessions[:0]
	return exports
}

// exportToExperiments sends one route (or withdrawal) from neighbor n to
// every connected experiment (a batch of one; multi-route callers hold
// their own collector).
func (r *Router) exportToExperiments(n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs, withdraw bool) {
	c := r.newCollector()
	c.exportToExperiments(n, prefix, attrs, withdraw)
	c.release()
}

// exportToMesh relays a locally learned neighbor route to every backbone
// peer. A batch of one; multi-route callers hold their own collector.
func (r *Router) exportToMesh(n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs, withdraw bool) {
	c := r.newCollector()
	c.exportToMesh(n, prefix, attrs, withdraw)
	c.release()
}

// localIP6 derives the IPv6 next hop exposed to experiments for a
// neighbor (the NDP-equivalent of the IPv4 local pool).
func localIP6(globalIP netip.Addr) netip.Addr {
	g := globalIP.As4()
	var raw [16]byte
	raw[0], raw[1], raw[2], raw[3] = 0xfd, 0x47, 0x00, 0x65
	copy(raw[12:], g[:])
	return netip.AddrFrom16(raw)
}

// experimentGRTime is the graceful-restart window advertised on
// experiment sessions: how long an experiment's routes survive a
// dropped control session (e.g. a tunnel redial) before being flushed.
const experimentGRTime = 10 * time.Second

// ConnectExperiment attaches an experiment BGP session over conn. The
// experiment's routes are validated by the enforcement engine; the
// experiment receives every known route via ADD-PATH once established.
// Reconnecting under a name whose previous session already died
// replaces the old registration (the redial path of a resilient
// experiment client).
func (r *Router) ConnectExperiment(name string, expASN uint32, conn net.Conn) (*bgp.Session, error) {
	e := &expConn{name: name, gr: experimentGRTime}
	sess := bgp.NewSession(conn, bgp.Config{
		LocalASN:  r.cfg.ASN,
		RemoteASN: expASN,
		LocalID:   r.cfg.RouterID,
		PeerName:  r.cfg.Name + ":exp:" + name,
		Families:  []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSendReceive,
			bgp.IPv6Unicast: bgp.AddPathSendReceive,
		},
		GracefulRestart: &bgp.GracefulRestartConfig{RestartTime: experimentGRTime},
		OnUpdate:        func(u *bgp.Update) { r.handleExperimentUpdate(e, u) },
		OnEstablished: func() {
			r.emit(telemetry.Event{Kind: telemetry.EventPeerUp, Peer: "exp:" + name, PeerASN: expASN})
			r.dumpTablesToExperiment(e)
		},
		OnRouteRefresh: func(bgp.AFISAFI) { r.dumpTablesToExperiment(e) },
		OnEndOfRIB:     func(fam bgp.AFISAFI) { r.experimentEndOfRIB(e, fam) },
		OnClose:        func(err error) { r.experimentDown(e, err) },
		Logf:           r.cfg.Logf,
	})
	e.session = sess

	r.mu.Lock()
	if old, dup := r.topo.Load().experiments[name]; dup {
		// Allow replacement only when the previous session is dead; a
		// live session under the same name is a configuration error.
		select {
		case <-old.session.Done():
		default:
			r.mu.Unlock()
			return nil, fmt.Errorf("core: experiment %s already connected", name)
		}
	}
	r.publish(func(t *topology) { t.experiments = withEntry(t.experiments, name, e) })
	r.mu.Unlock()

	go sess.Run()
	return sess, nil
}

// dumpBlockSize is how many routes a table dump reads, encodes and
// queues per step: a block every few tens of microseconds keeps the
// table's read locks short and gets the first routes to the peer long
// before the walk ends, while still packing well.
const dumpBlockSize = 128

// streamTable sends the best route of every prefix in neighbor n's
// table to sess, as class add sees it, a block at a time, and withholds
// the routes flap damping suppresses, as incremental export does. It
// returns how many routes it sent. Unlike the
// fan-out it waits for room in the session's queue — on the session's
// own goroutine (dumps run from its callbacks), between blocks, and
// with no table lock held — so a dump can neither overflow a healthy
// peer's queue nor hold anything up but itself.
//
// Ordering invariant: a block is read, encoded and queued inside one
// hold of the table's read locks (rib.Table.ReadBest), so it precedes in
// the queue the incremental export of any change made after it was
// read, and it reflects every change made before. With incremental
// exports of one prefix queued in the order its changes were made, the
// last message a session gets for a (prefix, path ID) is the newest
// state, dump or no dump.
func (r *Router) streamTable(sess *bgp.Session, n *Neighbor, add func(*exportList, *Neighbor, netip.Prefix, *bgp.PathAttrs, bool)) (sent int, err error) {
	var (
		list   exportList
		target = []*bgp.Session{sess}
		buf    = make([]rib.Route, dumpBlockSize)
		after  netip.Prefix
	)
	for {
		withheld := 0
		got := n.Table.ReadBest(after, buf, func(routes []rib.Route) {
			for _, rt := range routes {
				// The damper marks every path of the neighbor for the
				// prefix, so there is no undamped one to send instead.
				if rt.Best.Damped {
					withheld++
					continue
				}
				add(&list, n, rt.Prefix, rt.Best.Attrs, false)
			}
			if len(list.routes) == 0 {
				return
			}
			var took int
			if took, err = bgp.FanOut(target, list.routes); err == nil && took == 0 {
				err = fmt.Errorf("session is %s", sess.State())
			}
			list.reset()
		})
		if err != nil {
			return sent, err
		}
		sent += got - withheld
		if got < len(buf) {
			return sent, nil
		}
		after = buf[got-1].Prefix
		if err = sess.WaitSendRoom(); err != nil {
			return sent, err
		}
	}
}

// dumpTablesToExperiment replays every neighbor's routes to a newly
// established experiment session: one route per prefix per neighbor, the
// decision-process best, matching what incremental exports deliver
// (route servers hold several member paths per prefix).
func (r *Router) dumpTablesToExperiment(e *expConn) {
	r.logf("experiment %s established, dumping tables", e.name)
	for _, n := range r.topo.Load().neighbors {
		sent, err := r.streamTable(e.session, n, r.toExperiments)
		r.metrics.addPathExports.Add(uint64(sent))
		if err != nil {
			r.logf("table dump to %s: %v", e.name, err)
			return
		}
	}
	// End-of-RIB after the initial dump (RFC 4724 §3): lets a restarting
	// experiment sweep stale paths as soon as the replay completes.
	for _, fam := range []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast} {
		if err := e.session.SendEndOfRIB(fam); err != nil {
			return
		}
	}
}

// handleExperimentUpdate validates and propagates an experiment's
// announcements and withdrawals. Each NLRI's ADD-PATH ID names a version
// of the announcement; versions coexist, letting the experiment send
// different announcements for the same prefix to different neighbors.
func (r *Router) handleExperimentUpdate(e *expConn, u *bgp.Update) {
	r.updatesProcessed.Add(1)
	withdraw := func(w bgp.NLRI) {
		r.emit(telemetry.Event{
			Kind: telemetry.EventRouteMonitoring, Peer: "exp:" + e.name,
			Prefix: w.Prefix, PathID: uint32(w.ID), Withdraw: true,
		})
		r.withdrawExperimentRoute(e.name, w.Prefix, w.ID, true)
	}
	for _, w := range u.Withdrawn {
		withdraw(w)
	}
	for _, w := range u.MPUnreach {
		withdraw(w)
	}
	process := func(nlri bgp.NLRI, attrs *bgp.PathAttrs) {
		if attrs == nil {
			return
		}
		// Control communities are platform-directed: policy evaluates the
		// announcement without them, so they do not count against (or get
		// caught by) the experiment's community capability, and the route
		// is stored with them — they are its export policy.
		var stored *bgp.PathAttrs
		if r.cfg.Enforcer != nil {
			view, ctl, ctlLarge := splitControls(r.cfg.ASN, attrs)
			res := r.cfg.Enforcer.EvaluateAnnouncement(e.name, r.cfg.Name, nlri.Prefix, &view)
			if res.Action == policy.ActionReject {
				r.logf("rejected announcement %s from %s: %v", nlri.Prefix, e.name, res.Reasons)
				return
			}
			stored = res.Attrs
			stored.Communities = append(stored.Communities, ctl...)
			stored.LargeCommunities = append(stored.LargeCommunities, ctlLarge...)
		} else {
			stored = attrs.Clone()
		}

		// Overload shedding, last stage: under shedding pressure a new
		// announcement is treated as a withdrawal (the platform-level
		// analogue of RFC 7606 treat-as-withdraw). Policy above still
		// ran, so flap penalties and audit attribution keep accruing —
		// only the expensive install/propagate fan-out is shed.
		if r.shedAnnounce.Load() {
			r.metrics.shedAnnouncements.Inc()
			r.withdrawExperimentRoute(e.name, nlri.Prefix, nlri.ID, false)
			return
		}

		r.emit(telemetry.Event{
			Kind: telemetry.EventRouteMonitoring, Peer: "exp:" + e.name,
			Prefix: nlri.Prefix, PathID: uint32(nlri.ID),
			NextHop: stored.NextHop, ASPath: stored.ASPathFlat(),
		})
		r.expRoutes.Add(&rib.Path{
			Prefix: nlri.Prefix, ID: nlri.ID, Peer: e.name, Attrs: stored,
			EBGP: true, Seq: rib.NextSeq(),
		})
		r.syncPrefix(nlri.Prefix)
		r.relayExperimentRouteToMesh(nlri.Prefix, nlri.ID, stored, false)
	}
	for _, nlri := range u.NLRI {
		process(nlri, u.Attrs)
	}
	for _, nlri := range u.MPReach {
		process(nlri, u.Attrs)
	}
}

// withdrawExperimentRoute removes one version of an experiment's route
// and re-synchronizes neighbor exports. enforce selects whether the
// withdrawal consumes policy budget (it does when coming from the
// experiment itself).
func (r *Router) withdrawExperimentRoute(owner string, prefix netip.Prefix, id bgp.PathID, enforce bool) {
	if enforce && r.cfg.Enforcer != nil {
		res := r.cfg.Enforcer.EvaluateWithdraw(owner, r.cfg.Name, prefix)
		if res.Action == policy.ActionReject {
			r.logf("rejected withdraw %s from %s: %v", prefix, owner, res.Reasons)
			return
		}
	}
	if r.expRoutes.Withdraw(prefix, owner, id) == nil {
		return
	}
	r.syncPrefix(prefix)
	if !isMeshOwner(owner) {
		r.relayExperimentRouteToMesh(prefix, id, nil, true)
	}
}

func isMeshOwner(owner string) bool {
	return len(owner) > 5 && owner[:5] == "mesh:"
}

// syncPrefix reconciles every local neighbor's export state for one
// experiment prefix: each neighbor receives the newest announcement
// version that targets it, or a withdrawal if none does.
func (r *Router) syncPrefix(prefix netip.Prefix) {
	paths := r.expRoutes.Paths(prefix)
	for _, n := range r.topo.Load().neighbors {
		if n.Remote {
			continue
		}
		var chosen *rib.Path
		for _, p := range paths {
			if !exportsTo(r.cfg.ASN, p.Attrs, n.ID) {
				continue
			}
			if chosen == nil || p.Seq > chosen.Seq {
				chosen = p
			}
		}
		cur := n.AdjOut.Paths(prefix)
		switch {
		case chosen == nil && len(cur) > 0:
			r.sendExperimentWithdrawToNeighbor(n, prefix)
		case chosen != nil:
			// Skip if this exact version was already exported.
			if len(cur) == 1 && cur[0].Peer == chosen.Peer && cur[0].ID == chosen.ID && cur[0].Seq == chosen.Seq {
				continue
			}
			r.sendExperimentRouteToNeighbor(n, chosen)
		}
	}
}

// sendExperimentRouteToNeighbor exports one experiment route version on a
// neighbor session: control communities are stripped, the platform ASN
// is prepended, and the next hop becomes the router's own address on the
// neighbor's segment.
func (r *Router) sendExperimentRouteToNeighbor(n *Neighbor, chosen *rib.Path) {
	prefix := chosen.Prefix
	rest, _, _ := splitControls(r.cfg.ASN, chosen.Attrs)
	out := rest.Clone()
	out.PrependAS(r.cfg.ASN, 1)
	v6 := prefix.Addr().Is6()
	var u *bgp.Update
	if v6 {
		out.NextHop = netip.Addr{}
		if n.ifc != nil {
			out.MPNextHop = bbAddr6(n.ifc.PrimaryAddr())
		}
		u = &bgp.Update{Attrs: out, MPReach: []bgp.NLRI{{Prefix: prefix}}}
	} else {
		if n.ifc != nil {
			out.NextHop = n.ifc.PrimaryAddr()
		}
		u = &bgp.Update{Attrs: out, NLRI: []bgp.NLRI{{Prefix: prefix}}}
	}
	// Track the exported version regardless of session state so
	// replayExperimentRoutes can recover after establishment.
	for _, p := range n.AdjOut.Paths(prefix) {
		n.AdjOut.Withdraw(prefix, p.Peer, p.ID)
	}
	n.AdjOut.Add(&rib.Path{Prefix: prefix, ID: chosen.ID, Peer: chosen.Peer, Attrs: out, Seq: chosen.Seq})
	sess := n.Session()
	if sess == nil || sess.State() != bgp.StateEstablished {
		return
	}
	if err := sess.Send(u); err != nil {
		r.logf("export %s to neighbor %s: %v", prefix, n.Name, err)
	}
}

// sendExperimentWithdrawToNeighbor withdraws the prefix from a neighbor.
func (r *Router) sendExperimentWithdrawToNeighbor(n *Neighbor, prefix netip.Prefix) {
	for _, p := range n.AdjOut.Paths(prefix) {
		n.AdjOut.Withdraw(prefix, p.Peer, p.ID)
	}
	sess := n.Session()
	if sess == nil || sess.State() != bgp.StateEstablished {
		return
	}
	var u *bgp.Update
	if prefix.Addr().Is6() {
		u = &bgp.Update{Attrs: &bgp.PathAttrs{}, MPUnreach: []bgp.NLRI{{Prefix: prefix}}}
	} else {
		u = &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: prefix}}}
	}
	if err := sess.Send(u); err != nil {
		r.logf("withdraw %s from neighbor %s: %v", prefix, n.Name, err)
	}
}

// replayExperimentRoutes exports existing experiment announcements to a
// neighbor whose session just established.
func (r *Router) replayExperimentRoutes(n *Neighbor) {
	var prefixes []netip.Prefix
	r.expRoutes.Walk(func(prefix netip.Prefix, _ []*rib.Path) bool {
		prefixes = append(prefixes, prefix)
		return true
	})
	for _, prefix := range prefixes {
		// Force a resend by clearing the tracked export state.
		for _, p := range n.AdjOut.Paths(prefix) {
			n.AdjOut.Withdraw(prefix, p.Peer, p.ID)
		}
		r.syncPrefix(prefix)
	}
}

// relayExperimentRouteToMesh forwards an experiment announcement to
// every backbone peer so remote PoPs can export it to their neighbors
// (§4.4) and route inbound traffic back here. The stored attributes go
// as they are, control communities included; the next hop is this
// router's backbone address; the version ID is carried with the
// meshExpFlag bit.
func (r *Router) relayExperimentRouteToMesh(prefix netip.Prefix, id bgp.PathID, attrs *bgp.PathAttrs, withdraw bool) {
	t := r.topo.Load()
	bb := t.bbIfc
	if len(t.meshPeers) == 0 || bb == nil {
		return
	}
	var u *bgp.Update
	if !withdraw {
		u = meshAnnouncement(bb, prefix, id, attrs)
	} else if nlri := []bgp.NLRI{{Prefix: prefix, ID: id | meshExpFlag}}; prefix.Addr().Is6() {
		u = &bgp.Update{Attrs: &bgp.PathAttrs{}, MPUnreach: nlri}
	} else {
		u = &bgp.Update{Withdrawn: nlri}
	}
	for _, p := range t.meshPeers {
		if s := p.sess(); s != nil && s.State() == bgp.StateEstablished {
			if err := s.Send(u); err != nil {
				r.logf("mesh relay to %s: %v", p.name, err)
			}
		}
	}
}

// meshAnnouncement is the backbone UPDATE relaying version id of an
// experiment announcement: its stored attributes as they are, control
// communities included, but for the next hop, which becomes this
// router's backbone address.
func meshAnnouncement(bb *netsim.Interface, prefix netip.Prefix, id bgp.PathID, attrs *bgp.PathAttrs) *bgp.Update {
	out := *attrs
	nlri := bgp.NLRI{Prefix: prefix, ID: id | meshExpFlag}
	if prefix.Addr().Is6() {
		out.MPNextHop, out.NextHop = bbAddr6(bb.PrimaryAddr()), netip.Addr{}
		return &bgp.Update{Attrs: &out, MPReach: []bgp.NLRI{nlri}}
	}
	out.NextHop = bb.PrimaryAddr()
	return &bgp.Update{Attrs: &out, NLRI: []bgp.NLRI{nlri}}
}

// bbAddr6 maps a backbone IPv4 address into the v6 relay space.
func bbAddr6(v4 netip.Addr) netip.Addr {
	raw4 := v4.As4()
	var raw [16]byte
	raw[0], raw[1], raw[2], raw[3] = 0xfd, 0x47, 0x00, 0xbb
	copy(raw[12:], raw4[:])
	return netip.AddrFrom16(raw)
}

// experimentDown handles a disconnected experiment. When the session
// negotiated graceful restart and died on an error (not an
// administrative close), the experiment's routes are retained as stale
// for the restart window so a reconnecting client finds its
// announcements still exported; otherwise everything is withdrawn
// immediately.
func (r *Router) experimentDown(e *expConn, err error) {
	r.mu.Lock()
	// A replacement session may already be registered under the name
	// (redial racing ahead of this callback); only unregister ourselves.
	if r.topo.Load().experiments[e.name] == e {
		r.publish(func(t *topology) { t.experiments = withoutEntry(t.experiments, e.name) })
	}
	r.mu.Unlock()
	if err != nil && e.gr > 0 && e.session.GracefulRestartNegotiated() {
		r.logf("experiment %s down: %v (graceful restart, retaining routes for %s)", e.name, err, e.gr)
		r.emit(telemetry.Event{
			Kind: telemetry.EventPeerDown, Peer: "exp:" + e.name,
			Reason: closeReason(err) + " (graceful restart)",
		})
		if r.expRoutes.MarkPeerStale(e.name) > 0 {
			r.armExperimentFlush(e.name, e.gr)
		}
		return
	}
	r.logf("experiment %s disconnected: %v", e.name, err)
	r.emit(telemetry.Event{Kind: telemetry.EventPeerDown, Peer: "exp:" + e.name, Reason: closeReason(err)})
	type ver struct {
		prefix netip.Prefix
		id     bgp.PathID
	}
	var vers []ver
	r.expRoutes.Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
		for _, p := range paths {
			if p.Peer == e.name {
				vers = append(vers, ver{prefix, p.ID})
			}
		}
		return true
	})
	for _, v := range vers {
		r.withdrawExperimentRoute(e.name, v.prefix, v.id, false)
	}
}

// neighborDown handles a dropped neighbor session. A supervised session
// that negotiated graceful restart and died on a transport error keeps
// its routes as stale (forwarding state preserved, RFC 4724) until the
// peer re-establishes and sends End-of-RIB, or the restart window
// lapses. Everything else gets the immediate full withdrawal.
func (r *Router) neighborDown(n *Neighbor, err error) {
	sess := n.Session()
	if err != nil && n.sup != nil && n.gr > 0 && sess != nil && sess.GracefulRestartNegotiated() {
		r.logf("neighbor %s down: %v (graceful restart, retaining routes for %s)", n.Name, err, n.gr)
		r.emit(telemetry.Event{
			Kind: telemetry.EventPeerDown, Peer: n.Name, PeerASN: n.ASN,
			Reason: closeReason(err) + " (graceful restart)",
		})
		marked := n.Table.MarkPeerStale(n.Name)
		if r.defaultTable != nil {
			r.defaultTable.MarkPeerStale(n.Name)
		}
		if marked > 0 {
			r.armNeighborFlush(n)
		}
		// byRealMAC stays: forwarding continues on retained state.
		return
	}
	r.logf("neighbor %s down: %v", n.Name, err)
	r.emit(telemetry.Event{Kind: telemetry.EventPeerDown, Peer: n.Name, PeerASN: n.ASN, Reason: closeReason(err)})
	removed := n.Table.WithdrawPeer(n.Name)
	r.syncNeighborRoutesGauge(n)
	col := r.newCollector()
	for _, p := range removed {
		if r.defaultTable != nil {
			r.defaultTable.Withdraw(p.Prefix, n.Name, 0)
		}
		col.exportToExperiments(n, p.Prefix, nil, true)
		col.exportToMesh(n, p.Prefix, nil, true)
	}
	col.release()
	// Stop attributing inbound frames to the neighbor; its resolved MAC
	// stays known for forwarding toward it.
	r.mu.Lock()
	cur := r.topo.Load()
	if mac := cur.byLocalMAC[n.LocalMAC].realMAC; cur.byRealMAC[mac] == n {
		r.publish(func(t *topology) { t.byRealMAC = withoutEntry(t.byRealMAC, mac) })
	}
	r.mu.Unlock()
}
