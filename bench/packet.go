package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/rib"
	"repro/peering"
)

const (
	// pktBurst frames are sent back to back; pktWindow bursts may be in
	// flight on the asynchronous (tunnel) paths before the sender waits
	// for one to be counted at the far end. The loop is closed, and the
	// unbounded pipes under the tunnel never hold more than the window.
	pktBurst  = 256
	pktWindow = 8
	// verifyEvery-th delivered frame is decoded and checked.
	verifyEvery = 4096
)

var (
	expAllocation = netip.MustParsePrefix("184.164.224.0/19")
	expSource     = netip.MustParseAddr("184.164.224.1")
)

// flow counts arrivals at the far end of a packet path, opens its gate
// at the expected count (completion by count, never by sleep or poll),
// and hands the sender one credit per burst counted.
type flow struct {
	got, want atomic.Int64
	bad       atomic.Int64 // sampled frames that failed verification
	gate      *gate
	credit    chan struct{}
}

func newFlow() *flow {
	// Buffered for every burst of the largest round, so crediting never
	// blocks the data path.
	return &flow{gate: newGate(), credit: make(chan struct{}, 1<<16)}
}

// arrived counts one frame and reports whether it is due for
// verification.
func (f *flow) arrived() (verify bool) {
	n := f.got.Add(1)
	if n%pktBurst == 0 {
		select {
		case f.credit <- struct{}{}:
		default:
		}
	}
	if n == f.want.Load() {
		f.gate.open()
	}
	return n%verifyEvery == 0
}

// reset prepares the flow for a round of n frames.
func (f *flow) reset(n int) {
	f.got.Store(0)
	f.want.Store(int64(n))
	f.gate.drain() // a synchronous round opens the gate and nobody waits on it
	for len(f.credit) > 0 {
		<-f.credit
	}
}

// packetPath is one PoP of a peering.Platform with an IXP-style neighbor
// LAN of sink ports and one experiment attached through the production
// tunnel → bridge → anti-spoof BPF path.
type packetPath struct {
	shape packetShape
	// firstRoute is where the destinations' stride starts, from the seed.
	firstRoute int
	platform   *peering.Platform
	pop        *peering.PoP
	client     *peering.Client
	nbrs       []*core.Neighbor
	sessions   []*bgp.Session
	ports      []*netsim.Interface
	tx         *netsim.Interface // the benchmark's port on the experiment LAN

	sink    *flow // frames counted at the neighbor ports
	inbound *flow // packets counted in Client.OnPacket

	frames   []ethernet.Frame // egress: experiment LAN → neighbor
	big      []ethernet.Frame // the same with a 1 400-byte payload
	inFrames []ethernet.Frame // ingress: neighbor port → experiment prefix
	inPort   []int            // the port each ingress frame leaves from
	pkts     []ethernet.IPv4  // Client.SendIP inputs

	attempted, failed int64
}

func portAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{198, 19, byte(i >> 8), byte(i + 1)}) }

// destFor is the k-th traffic destination: ports in turn, routes within
// a port in a fixed stride from a seeded start.
func (p *packetPath) destFor(k int) (port, route int) {
	return k % p.shape.ports, (p.firstRoute + k/p.shape.ports*37) % p.shape.routesPerPort
}

func newPacketPath(seed int64, sh packetShape) (*packetPath, error) {
	p := &packetPath{shape: sh, sink: newFlow(), inbound: newFlow()}
	p.firstRoute = rand.New(rand.NewSource(seed)).Intn(sh.routesPerPort)
	p.platform = peering.NewPlatform(peering.PlatformConfig{ASN: platformASN})
	var err error
	p.pop, err = p.platform.AddPoP(peering.PoPConfig{
		Name: "pop-a", RouterID: netip.MustParseAddr("10.255.1.1"),
		LocalPool: netip.MustParsePrefix("127.65.0.0/16"), ExpLAN: netip.MustParsePrefix("100.65.0.0/24"),
	})
	if err != nil {
		return nil, err
	}
	r := p.pop.Router
	p.ports = newNeighborLAN(r, "ix0", netip.MustParsePrefix("198.19.255.254/16"), sh.ports, portAddr,
		func(_ *netsim.Interface, fr *ethernet.Frame) {
			if p.sink.arrived() {
				var ip ethernet.IPv4
				// DecodeFromBytes verifies the header checksum.
				if fr.Type != ethernet.TypeIPv4 || ip.DecodeFromBytes(fr.Payload) != nil || ip.TTL != 63 {
					p.sink.bad.Add(1)
				}
			}
		})
	for i := 0; i < sh.ports; i++ {
		routerEnd, peerEnd := pipe.New()
		n, err := r.AddNeighbor(core.NeighborConfig{
			Name: fmt.Sprintf("ix-%d", i), ID: p.platform.NextNeighborID(), ASN: neighborASN0 + uint32(i),
			Addr: portAddr(i), Interface: "ix0", Conn: routerEnd,
		})
		if err != nil {
			return nil, err
		}
		s := bgp.NewSession(peerEnd, bgp.Config{LocalASN: neighborASN0 + uint32(i), RemoteASN: platformASN, LocalID: portAddr(i)})
		go s.Run()
		p.nbrs, p.sessions = append(p.nbrs, n), append(p.sessions, s)
	}
	if err := waitEstablished(p.sessions...); err != nil {
		return nil, err
	}

	// The experiment, through the §4.6 workflow and the production tunnel.
	if err := p.platform.Submit(peering.Proposal{
		Name: "bench", Owner: "bench", Plan: "packet-path benchmark",
		Prefixes: []netip.Prefix{expAllocation}, ASNs: []uint32{expASN0},
	}); err != nil {
		return nil, err
	}
	key, err := p.platform.Approve("bench", nil)
	if err != nil {
		return nil, err
	}
	p.client = peering.NewClient("bench", key, expASN0)
	if err := p.client.OpenTunnel(p.pop); err != nil {
		return nil, err
	}
	if err := p.client.OnPacket("pop-a", func(ip *ethernet.IPv4, from ethernet.MAC) {
		if p.inbound.arrived() && (ip.TTL != 63 || from[0] != 0x02 || from[1] != 0x7f) {
			p.inbound.bad.Add(1)
		}
	}); err != nil {
		return nil, err
	}
	if err := p.client.StartBGP("pop-a"); err != nil {
		return nil, err
	}
	if err := p.client.WaitEstablished("pop-a", fenceTimeout); err != nil {
		return nil, err
	}
	p.tx = netsim.NewInterface("bench-tx", ethernet.MAC{0x0a, 0xfe, 0, 0, 0, 1})
	p.tx.Attach(p.pop.ExpLAN())
	return p, nil
}

// pollUntil is for set-up only: nothing is timed across it.
func pollUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(fenceTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// routePrefix is route j of port i: every port announces its own
// prefixes, so the experiment's best route to a destination names the
// port.
func (s packetShape) routePrefix(port, j int) netip.Prefix {
	return tablePrefix(port*s.routesPerPort + j)
}

// load announces every port's routes over its session and waits until
// the experiment has learned the last of each and its own prefix is
// installed for inbound traffic.
func (p *packetPath) load() error {
	const perUpdate = 64
	// Client.WaitEstablished reports the client's end. The router's end
	// establishes a moment later, and until it has, the router skips the
	// session when exporting (a route processed in that window reaches the
	// experiment only if the establishment dump happens to walk its table
	// afterwards). Prime with a throwaway route until the experiment learns
	// it: from then on every export is delivered.
	prime := bgp.Update{
		Attrs: &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: portAddr(0), HasMED: true,
			ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{neighborASN0}}}},
		NLRI: []bgp.NLRI{{Prefix: sentinelPrefix}},
	}
	if err := pollUntil("the router to start exporting to the experiment", func() bool {
		prime.Attrs.MED++
		return p.sessions[0].Send(&prime) != nil || len(p.client.RoutesFor("pop-a", sentinelPrefix)) > 0
	}); err != nil {
		return err
	}
	for i, s := range p.sessions {
		attrs := &bgp.PathAttrs{
			Origin: bgp.OriginIGP, HasOrigin: true, NextHop: portAddr(i),
			ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{neighborASN0 + uint32(i), 3356, uint32(20000 + i)}}},
		}
		for j := 0; j < p.shape.routesPerPort; j += perUpdate {
			u := &bgp.Update{Attrs: attrs}
			for k := j; k < min(j+perUpdate, p.shape.routesPerPort); k++ {
				u.NLRI = append(u.NLRI, bgp.NLRI{Prefix: p.shape.routePrefix(i, k)})
			}
			if err := s.Send(u); err != nil {
				return err
			}
		}
	}
	for i := range p.sessions {
		last := p.shape.routePrefix(i, p.shape.routesPerPort-1)
		if err := pollUntil("the experiment to learn "+last.String(), func() bool {
			return len(p.client.RoutesFor("pop-a", last)) > 0
		}); err != nil {
			return err
		}
	}
	if err := p.client.Announce("pop-a", expAllocation); err != nil {
		return err
	}
	if err := pollUntil("the experiment's prefix to install", func() bool {
		return len(p.pop.Router.ExperimentRoutes().Paths(expAllocation)) > 0
	}); err != nil {
		return err
	}
	p.platform.WaitMonitorDrained(fenceTimeout)
	return nil
}

// prebuild makes every frame and packet the timed windows send.
func (p *packetPath) prebuild() {
	sh := p.shape
	ixMAC := p.pop.Router.Interface("ix0").MAC()
	build := func(payload int) []ethernet.Frame {
		out := make([]ethernet.Frame, sh.dests)
		for k := range out {
			port, route := p.destFor(k)
			ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: expSource,
				Dst: sh.routePrefix(port, route).Addr().Next(), Payload: make([]byte, 8+payload)}
			out[k] = ethernet.Frame{Dst: p.nbrs[port].LocalMAC, Src: p.tx.MAC(), Type: ethernet.TypeIPv4, Payload: ip.Marshal()}
		}
		return out
	}
	p.frames, p.big = build(sh.payload), build(1400)
	p.inFrames, p.inPort = make([]ethernet.Frame, sh.dests), make([]int, sh.dests)
	p.pkts = make([]ethernet.IPv4, sh.dests)
	for k := 0; k < sh.dests; k++ {
		port, route := p.destFor(k)
		ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
			Src: sh.routePrefix(port, route).Addr().Next(),
			Dst: netip.AddrFrom4([4]byte{184, 164, byte(224 + k>>8&0x1f), byte(k)}), Payload: make([]byte, 8+sh.payload)}
		p.inFrames[k] = ethernet.Frame{Dst: ixMAC, Src: p.ports[port].MAC(), Type: ethernet.TypeIPv4, Payload: ip.Marshal()}
		p.inPort[k] = port
		p.pkts[k] = ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: expSource,
			Dst: sh.routePrefix(port, route).Addr().Next(), Payload: make([]byte, 8+sh.payload)}
	}
}

// freshSnapshots rebuilds the FIB snapshot of every table the data plane
// looks up, so timing starts on a quiescent table (protocol rule 3).
func (p *packetPath) freshSnapshots() {
	for _, n := range p.nbrs {
		n.Table.BuildSnapshot()
	}
	p.pop.Router.ExperimentRoutes().BuildSnapshot()
}

// lookupStats sums the lookup counters of every table the data plane
// looks up: the neighbors' (egress) and the experiment routes (ingress).
func (p *packetPath) lookupStats() (lookups, fromSnapshot uint64) {
	tables := []*rib.Table{p.pop.Router.ExperimentRoutes()}
	for _, n := range p.nbrs {
		tables = append(tables, n.Table)
	}
	for _, t := range tables {
		st := t.Stats()
		lookups += st.Lookups
		fromSnapshot += st.SnapshotLookups
	}
	return lookups, fromSnapshot
}

func (p *packetPath) drops() uint64 {
	r := p.pop.Router
	return r.DroppedNoMAC.Load() + r.DroppedNoRoute.Load() + r.TTLExpired.Load()
}

// forwardRound sends n pre-built frames on the experiment LAN. netsim
// delivers inline, so the call chain is synchronous and the count at the
// sinks is final when the loop ends.
func (p *packetPath) forwardRound(frames []ethernet.Frame, n int) {
	p.sink.reset(n)
	for i := 0; i < n; i++ {
		p.tx.Send(&frames[i%len(frames)])
	}
}

// windowed sends n items through an asynchronous path, a burst at a
// time, never more than pktWindow bursts ahead of what f has counted,
// and waits for the last to arrive. It reports false when a credit or
// the last arrival did not come within fenceTimeout: the path lost
// packets, which account() then books.
func windowed(f *flow, n int, send func(i int)) bool {
	f.reset(n)
	for start, burst := 0, 0; start < n; start, burst = start+pktBurst, burst+1 {
		if burst >= pktWindow && !f.gate.waitOn(f.credit) {
			return false
		}
		for i := start; i < min(start+pktBurst, n); i++ {
			send(i)
		}
	}
	return f.gate.wait()
}

func (p *packetPath) inboundRound(n int) bool {
	return windowed(p.inbound, n, func(i int) {
		k := i % len(p.inFrames)
		p.ports[p.inPort[k]].Send(&p.inFrames[k])
	})
}

func (p *packetPath) tunnelRound(n int, sendNs *int64) bool {
	ok := true
	done := windowed(p.sink, n, func(i int) {
		pkt := &p.pkts[i%len(p.pkts)]
		if sendNs == nil {
			if p.client.SendIP("pop-a", 0, pkt) != nil {
				ok = false
			}
			return
		}
		t := time.Now()
		if p.client.SendIP("pop-a", 0, pkt) != nil {
			ok = false
		}
		*sendNs += int64(time.Since(t))
	})
	return ok && done
}

// account books one round's outcome: n attempted, and failed whatever
// was not counted at the far end or failed its sampled check.
func (p *packetPath) account(f *flow, n int, done bool) {
	p.attempted += int64(n)
	if missing := int64(n) - f.got.Load(); missing > 0 || !done {
		p.failed += max(missing, 1)
	}
	p.failed += f.bad.Swap(0)
}

func (p *packetPath) close() {
	_ = p.client.StopBGP("pop-a")
	_ = p.client.CloseTunnel("pop-a")
	for _, s := range p.sessions {
		s.Close()
	}
	_ = p.platform.Close()
}

// preparePacketPath builds the workload's PoP and returns the packet
// path's timed phases — the three directions, each on a quiescent table
// with fresh snapshots. An untraced run reports their allocations per
// packet; a traced run their rates and the data-plane layer metrics.
func preparePacketPath(h *harness, sh shape) (*pathRun, error) {
	ps, w := sh.packet, sh.weights
	setupStart := time.Now()
	p, err := newPacketPath(h.opt.seed, ps)
	if err != nil {
		return nil, err
	}
	if err := p.load(); err != nil {
		return nil, err
	}
	p.prebuild()
	// Warm every path once: ARP caches on both sides of the tunnel, the
	// client's own table snapshot, pooled buffers.
	p.forwardRound(p.frames, len(p.frames))
	if got := p.sink.got.Load(); got != int64(len(p.frames)) {
		return nil, fmt.Errorf("warm-up: %d of %d forwarded frames reached the sinks (router drops %d)", got, len(p.frames), p.drops())
	}
	if !p.inboundRound(len(p.inFrames)) {
		return nil, fmt.Errorf("warm-up: %d of %d inbound packets reached the experiment (router drops %d)", p.inbound.got.Load(), len(p.inFrames), p.drops())
	}
	if !p.tunnelRound(len(p.pkts), nil) {
		return nil, fmt.Errorf("warm-up: %d of %d tunnelled packets reached the sinks (router drops %d)", p.sink.got.Load(), len(p.pkts), p.drops())
	}
	p.freshSnapshots()
	h.addSetup("packet", time.Since(setupStart))

	n := ps.pktsPerRound
	var fwd, in, tun roundSeries
	lookups0, fromSnap0 := p.lookupStats()
	drops0 := p.drops()
	var sent int // packets of the quiescent rounds
	run := &pathRun{phases: []*phase{
		{weight: w.forward, step: func() {
			fwd.timed(n, func() { p.forwardRound(p.frames, n) })
			p.account(p.sink, n, true)
			sent += n
		}},
		{weight: w.inbound, step: func() {
			var done bool
			in.timed(n, func() { done = p.inboundRound(n) })
			p.account(p.inbound, n, done)
			sent += n
		}},
		{weight: w.tunnel, step: func() {
			var done bool
			tun.timed(n, func() { done = p.tunnelRound(n, nil) })
			p.account(p.sink, n, done)
			sent += n
		}},
	}}
	run.finish = func() error {
		// The run fails if any lookup missed the snapshot or any packet
		// was dropped.
		lookups1, fromSnap1 := p.lookupStats()
		frac := float64(fromSnap1-fromSnap0) / float64(max(lookups1-lookups0, 1))
		if frac < 1 {
			h.problem("packet path: rib.snapshot_lookup_frac = %.4f on quiescent tables, want 1.0", frac)
		}
		dropped := p.drops() - drops0
		if dropped > 0 {
			h.problem("packet path: router dropped %d packets", dropped)
		}
		h.rate("core.forward_pps", &fwd)
		h.rate("core.inbound_pps", &in)
		h.rate("core.tunnel_forward_pps", &tun)
		if !h.opt.trace {
			h.set("forward_allocs_per_pkt", median(fwd.allocs))
			h.set("inbound_allocs_per_pkt", median(in.allocs))
			h.set("tunnel_allocs_per_pkt", median(tun.allocs))
		} else {
			h.set("rib.snapshot_lookup_frac", frac)
			h.set("core.drops_per_mpkt", float64(dropped)*1e6/float64(max(sent, 1)))
			p.tracedExtras(h, &fwd, &tun)
		}
		h.ops(p.attempted, p.failed)
		p.close()
		return nil
	}
	return run, nil
}

// tracedExtras derives the data-plane layer metrics.
func (p *packetPath) tracedExtras(h *harness, fwd, tun *roundSeries) {
	n := p.shape.pktsPerRound
	k := h.extraRounds()
	fpps, tpps := fwd.rate(), tun.rate()
	h.carry.forwardPps = fpps
	h.set("core.forward_ns_per_pkt", 1e9/fpps)
	h.set("core.forward_bytes_per_pkt", median(fwd.bytes))
	h.set("tunnel.overhead_ns_per_pkt", 1e9/tpps-1e9/fpps)

	// The Client.SendIP call itself, timed per packet: rounds of their own,
	// so the clock reads stay out of core.tunnel_forward_pps.
	var sendNs int64
	for i := 0; i < k; i++ {
		p.account(p.sink, n, p.tunnelRound(n, &sendNs))
	}
	h.set("peering.sendip_ns", float64(sendNs)/float64(k*n))

	// Per-byte copy cost: the same rounds with a 1 400-byte payload.
	var big roundSeries
	for i := 0; i < k; i++ {
		big.timed(n, func() { p.forwardRound(p.big, n) })
		p.account(p.sink, n, true)
	}
	h.set("core.forward_1400B_pps", big.rate())

	// Reads beside writes: forwarding while one neighbor session applies a
	// paced 2 000 updates/s to a table being looked up, snapshot
	// staleness included. Expected bimodal; reported, not gated.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: portAddr(0), HasMED: true,
			ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{neighborASN0, 3356, 20000}}}}
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for x := 0; x < 2; x++ {
				attrs.MED = uint32(j)
				u := bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: p.shape.routePrefix(0, (2*j+x)%p.shape.routesPerPort)}}}
				if p.sessions[0].Send(&u) != nil {
					return
				}
			}
		}
	}()
	var churn roundSeries
	for i := 0; i < k; i++ {
		churn.timed(n, func() { p.forwardRound(p.frames, n) })
		p.account(p.sink, n, true)
	}
	close(stop)
	<-stopped
	h.set("core.forward_churn_pps", churn.rate())
}
