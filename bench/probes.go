package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/bpf"
	"repro/internal/ctlplane"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/policy"
	"repro/internal/rib"
	"repro/internal/tunnel"
)

// Probes call a layer's exported functions directly, with the workload's
// own generated inputs, and time the calls. They run after the traced
// paths, on a heap the paths have left.

// probeResult is the cost of one operation.
type probeResult struct{ ns, allocs float64 }

// probe times reps repetitions of fn, each doing iters operations, and
// returns the cost per operation in the quiet tail of the repetitions. A
// collection runs, untimed, before each repetition.
func probe(reps, iters int, fn func()) probeResult {
	var s roundSeries
	for r := 0; r < reps; r++ {
		s.timed(iters, fn)
	}
	return probeResult{ns: 1e9 / s.rate(), allocs: median(s.allocs)}
}

// prober sizes the probes: reps repetitions each, iteration counts
// divided by div (the smoke test's scale).
type prober struct {
	h         *harness
	reps, div int
}

func (p prober) n(iters int) int { return max(iters/p.div, 64) }

// runProbes fills in every probe-sourced layer metric and the metrics
// derived from probes plus what the paths carried over.
func runProbes(h *harness, sh shape) error {
	p := prober{h: h, reps: 5, div: 1}
	if h.opt.scale > 1 {
		p.reps, p.div = 2, h.opt.scale
	}
	p.bgp()
	p.pipe()
	p.policy()
	ribBytes := p.rib(sh)
	h.set("core.router_bytes_per_route", h.carry.memBytesPerRoute-ribBytes)
	lanSend := p.netsim(sh.packet.ports)
	decode, marshal := p.ethernet(sh.packet.payload)
	lookup := h.values["rib.lookup_ns"]
	send2 := h.values["netsim.send_ns_ports2"]
	// One forwarded packet is one synchronous call chain: a send onto the
	// experiment LAN, decode, lookup, marshal, a send onto the neighbor
	// LAN. What is left is the router's own.
	h.set("core.forward_self_ns", 1e9/h.carry.forwardPps-decode-marshal-lookup-send2-lanSend)
	if err := p.bpf(sh.packet.payload); err != nil {
		return err
	}
	if err := p.tunnel(sh.packet.payload); err != nil {
		return err
	}
	return p.store(sh.api.preload)
}

// sessionPair is two established sessions over a pipe; got counts the
// routes the receiver's OnUpdate saw.
type sessionPair struct {
	snd, rcv *bgp.Session
	got      atomic.Int64
	want     atomic.Int64
	gate     *gate
}

func newSessionPair() (*sessionPair, error) {
	p := &sessionPair{gate: newGate()}
	a, b := pipe.New()
	p.rcv = bgp.NewSession(a, bgp.Config{LocalASN: platformASN, RemoteASN: neighborASN0, LocalID: netip.MustParseAddr("10.0.0.1"),
		OnUpdate: func(u *bgp.Update) {
			if p.got.Add(int64(len(u.NLRI)+len(u.Withdrawn))) == p.want.Load() {
				p.gate.open()
			}
		}})
	p.snd = bgp.NewSession(b, bgp.Config{LocalASN: neighborASN0, RemoteASN: platformASN, LocalID: netip.MustParseAddr("10.0.0.2")})
	go p.rcv.Run()
	go p.snd.Run()
	return p, waitEstablished(p.snd, p.rcv)
}

func (p *sessionPair) close() { p.snd.Close(); p.rcv.Close() }

func (p prober) bgp() {
	h := p.h
	const block = 256
	routes := max(32768/p.div, 512)
	for _, c := range []struct {
		name     string
		perGroup int
	}{{"bgp.roundtrip_ns_per_route", 1}, {"bgp.roundtrip_packed_ns_per_route", 8}} {
		pair, err := newSessionPair()
		if err != nil {
			h.problem("%s: %v", c.name, err)
			continue
		}
		gen := newUpdateGen(h.opt.seed, neighborASN0, nbrAddr(0), routes, c.perGroup, churnMix{})
		updates := make([]bgp.Update, len(gen.groups))
		ptrs := make([]*bgp.Update, len(updates))
		for i := range updates {
			gen.announce(i, &updates[i])
			ptrs[i] = &updates[i]
		}
		res := probe(p.reps, routes, func() {
			pair.want.Store(pair.got.Load() + int64(routes))
			for i := 0; i < len(ptrs); i += block {
				if pair.snd.SendBatch(ptrs[i:min(i+block, len(ptrs))]) != nil {
					return
				}
			}
			pair.gate.wait()
		})
		h.set(c.name, res.ns)
		if c.perGroup == 1 {
			h.set("bgp.allocs_per_route", res.allocs)
			a := gen.groups[0].attrs
			var keep *bgp.PathAttrs
			clones := p.n(200_000)
			h.set("bgp.attrs_clone_ns", probe(p.reps, clones, func() {
				for i := 0; i < clones; i++ {
					keep = a.Clone()
				}
			}).ns)
			runtime.KeepAlive(keep)
		}
		pair.close()
	}
}

func (p prober) pipe() {
	h := p.h
	a, b := pipe.New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	blockBuf := make([]byte, 4096)
	iters := p.n(20_000)
	h.set("pipe.write_ns", probe(p.reps, iters, func() {
		for i := 0; i < iters; i++ {
			_, _ = a.Write(blockBuf) // a pipe write cannot fail while both ends are open
		}
	}).ns)
	a.Close()
	<-done
}

func (p prober) policy() {
	h := p.h
	en := policy.NewEngine(platformASN)
	en.DailyUpdateLimit = 1 << 30
	en.Register(&policy.Experiment{Name: "bench", Prefixes: []netip.Prefix{bulkAllocation}, ASNs: []uint32{expASN0}})
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: netip.MustParseAddr("100.65.0.1"),
		ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN0}}}}
	iters := p.n(20_000)
	rejected := 0
	ann := probe(p.reps, iters, func() {
		for i := 0; i < iters; i++ {
			if en.EvaluateAnnouncement("bench", "pop-a", bulkPrefix(i&1023), attrs).Action == policy.ActionReject {
				rejected++
			}
		}
	})
	h.set("policy.evaluate_ns", ann.ns)
	h.set("policy.evaluate_allocs", ann.allocs)
	h.set("policy.withdraw_ns", probe(p.reps, iters, func() {
		for i := 0; i < iters; i++ {
			if en.EvaluateWithdraw("bench", "pop-a", bulkPrefix(i&1023)).Action == policy.ActionReject {
				rejected++
			}
		}
	}).ns)
	if rejected > 0 {
		h.problem("policy probe: %d evaluations rejected", rejected)
	}
}

// storedPaths builds the paths a router would store for one neighbor's
// table: one cloned attribute set per route, as admit makes them.
func storedPaths(g *updateGen, peer string) []*rib.Path {
	paths := make([]*rib.Path, 0, len(g.expected))
	for gi := range g.groups {
		grp := &g.groups[gi]
		for _, n := range grp.nlri {
			paths = append(paths, &rib.Path{Prefix: n.Prefix, Peer: peer, Attrs: grp.attrs.Clone(), EBGP: true, Seq: rib.NextSeq()})
		}
	}
	return paths
}

func (p prober) rib(sh shape) (bytesPerRoute float64) {
	h, scale := p.h, p.div
	us := sh.update
	// rib.bytes_per_route: bare tables holding the workload's own paths,
	// snapshot included, the way the router keeps them.
	base := liveHeap()
	tables := make([]*rib.Table, us.neighbors)
	for n := range tables {
		g := newUpdateGen(h.opt.seed*1000+int64(n), neighborASN0+uint32(n), nbrAddr(n), us.routesPerNbr, us.nlriPerUpdate, us.mix)
		t := rib.NewTable(fmt.Sprintf("probe-%d", n))
		t.EnableAutoSnapshot(1024)
		t.AddBatch(storedPaths(g, "n"))
		t.BuildSnapshot()
		tables[n] = t
	}
	bytesPerRoute = float64(liveHeap()-base) / float64(us.routes())
	h.set("rib.bytes_per_route", bytesPerRoute)
	runtime.KeepAlive(tables)
	tables = nil

	// Mutation and walk costs on one large table.
	big := max(262144/scale, 4096)
	g := newUpdateGen(h.opt.seed, neighborASN0, nbrAddr(0), big, 8, churnMix{})
	t := rib.NewTable("probe-big")
	paths := storedPaths(g, "n")
	t.AddBatch(paths)
	const batch = 8
	part := paths[:big/4]
	fresh := func() []*rib.Path { // replacement paths, built outside the timed window
		out := make([]*rib.Path, len(part))
		for i, p := range part {
			c := *p
			c.Seq = rib.NextSeq()
			out[i] = &c
		}
		return out
	}
	var adds roundSeries
	locks0 := t.Stats().WriteLocks
	for r := 0; r < p.reps; r++ {
		next := fresh()
		adds.timed(len(next), func() {
			for i := 0; i < len(next); i += batch {
				t.AddBatch(next[i : i+batch])
			}
		})
	}
	h.set("rib.addbatch_ns_per_route", 1e9/adds.rate())
	h.set("rib.write_locks_per_route", float64(t.Stats().WriteLocks-locks0)/float64(p.reps*len(part)))
	reqs := make([]rib.WithdrawRequest, len(part))
	for i, p := range part {
		reqs[i] = rib.WithdrawRequest{Prefix: p.Prefix, Peer: p.Peer}
	}
	var wds roundSeries
	for r := 0; r < p.reps; r++ {
		wds.timed(len(reqs), func() {
			for i := 0; i < len(reqs); i += batch {
				t.WithdrawBatch(reqs[i : i+batch])
			}
		})
		t.AddBatch(fresh())
	}
	h.set("rib.withdrawbatch_ns_per_route", 1e9/wds.rate())
	walked := 0
	h.set("rib.walkbest_ns_per_route", probe(p.reps, big, func() {
		t.WalkBest(func(netip.Prefix, *rib.Path) bool { walked++; return true })
	}).ns)
	if walked != p.reps*big {
		h.problem("rib probe: WalkBest visited %d routes, want %d", walked, p.reps*big)
	}

	// Snapshot rebuild cost at the two table sizes the workloads hold.
	for _, c := range []struct {
		name string
		n    int
	}{{"rib.snapshot_build_ms_16k", 16384}, {"rib.snapshot_build_ms_128k", 131072}} {
		st := rib.NewTable(c.name)
		n := max(c.n/scale, 1024)
		st.AddBatch(paths[:min(n, len(paths))])
		h.set(c.name, probe(p.reps, 1, func() { st.BuildSnapshot() }).ns/1e6)
	}

	// The data plane's lookup, on a table the size of one neighbor port's:
	// fresh snapshot, then with the snapshot invalidated (auto rebuild off,
	// so it stays stale and every lookup takes the shard read lock).
	lt := rib.NewTable("probe-lookup")
	lt.AddBatch(paths[:min(sh.packet.routesPerPort, len(paths))])
	lt.BuildSnapshot()
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = paths[(i*37)%min(sh.packet.routesPerPort, len(paths))].Prefix.Addr().Next()
	}
	lookups := p.n(400_000)
	misses := 0
	lookup := func() {
		for i := 0; i < lookups; i++ {
			if lt.Lookup(addrs[i&1023]) == nil {
				misses++
			}
		}
	}
	s0 := lt.Stats()
	h.set("rib.lookup_ns", probe(p.reps, lookups, lookup).ns)
	s1 := lt.Stats()
	if s1.SnapshotLookups-s0.SnapshotLookups != s1.Lookups-s0.Lookups {
		h.problem("rib probe: fresh-snapshot lookups fell back to locks")
	}
	c := *paths[0]
	c.Seq = rib.NextSeq()
	lt.Add(&c)
	h.set("rib.lookup_stale_ns", probe(p.reps, lookups, lookup).ns)
	if s2 := lt.Stats(); s2.LockedLookups-s1.LockedLookups != s2.Lookups-s1.Lookups {
		h.problem("rib probe: stale-snapshot lookups were served from the snapshot")
	}
	if misses > 0 {
		h.problem("rib probe: %d lookups missed", misses)
	}
	return bytesPerRoute
}

// workloadFrame is the packet path's frame: UDP, payload bytes.
func workloadFrame(payload int, dst ethernet.MAC) ethernet.Frame {
	ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP, Src: expSource,
		Dst: netip.MustParseAddr("1.0.0.1"), Payload: make([]byte, 8+payload)}
	return ethernet.Frame{Dst: dst, Src: ethernet.MAC{0x0a, 0xfe, 0, 0, 0, 1}, Type: ethernet.TypeIPv4, Payload: ip.Marshal()}
}

// probeNetsim times Interface.Send to a sink on a 2-port and a 65-port
// segment, and returns the cost on a LAN of the workload's own size.
func (p prober) netsim(lanPorts int) (lanSendNs float64) {
	h, iters := p.h, p.n(200_000)
	send := func(sinks int) probeResult {
		seg := netsim.NewSegment("probe")
		var last ethernet.MAC
		for i := 0; i < sinks; i++ {
			last = ethernet.MAC{0x02, 0xa5, 0, 0, byte(i >> 8), byte(i)}
			p := netsim.NewInterface(fmt.Sprintf("sink%d", i), last)
			p.SetHandler(func(*netsim.Interface, *ethernet.Frame) {})
			p.Attach(seg)
		}
		tx := netsim.NewInterface("tx", ethernet.MAC{0x0a, 0xfe, 0, 0, 0, 1})
		tx.Attach(seg)
		fr := workloadFrame(64, last)
		return probe(p.reps, iters, func() {
			for i := 0; i < iters; i++ {
				tx.Send(&fr)
			}
		})
	}
	two := send(1)
	h.set("netsim.send_ns_ports2", two.ns)
	h.set("netsim.allocs_per_send", two.allocs)
	wide := send(64)
	h.set("netsim.send_ns_ports64", wide.ns)
	if lanPorts == 64 {
		return wide.ns
	}
	return send(lanPorts).ns
}

func (p prober) ethernet(payload int) (decodeNs, marshalNs float64) {
	h := p.h
	fr := workloadFrame(payload, ethernet.MAC{2, 0, 0, 0, 0, 1})
	data := fr.Marshal()
	iters := p.n(500_000)
	bad := 0
	dec := probe(p.reps, iters, func() {
		for i := 0; i < iters; i++ {
			var f ethernet.Frame
			var ip ethernet.IPv4
			if f.DecodeFromBytes(data) != nil || ip.DecodeFromBytes(f.Payload) != nil {
				bad++
			}
		}
	})
	var ip ethernet.IPv4
	_ = ip.DecodeFromBytes(fr.Payload) // checked by the decode probe above
	var keep []byte
	mar := probe(p.reps, iters, func() {
		for i := 0; i < iters; i++ {
			out := ethernet.Frame{Dst: fr.Dst, Src: fr.Src, Type: fr.Type, Payload: ip.Marshal()}
			keep = out.Marshal()
		}
	})
	runtime.KeepAlive(keep)
	if bad > 0 {
		h.problem("ethernet probe: %d decodes failed", bad)
	}
	h.set("ethernet.decode_ns", dec.ns)
	h.set("ethernet.marshal_ns", mar.ns)
	h.set("ethernet.allocs_per_pkt", dec.allocs+mar.allocs)
	return dec.ns, mar.ns
}

func (p prober) bpf(payload int) error {
	h := p.h
	prog, err := bpf.SourceIPFilter("probe", []netip.Prefix{netip.MustParsePrefix("100.65.0.1/32"), expAllocation})
	if err != nil {
		return err
	}
	fr := workloadFrame(payload, ethernet.MAC{2, 0, 0, 0, 0, 1})
	data := fr.Marshal()
	iters := p.n(500_000)
	dropped := 0
	h.set("bpf.srcfilter_run_ns", probe(p.reps, iters, func() {
		for i := 0; i < iters; i++ {
			if prog.Run(data) != bpf.VerdictPass {
				dropped++
			}
		}
	}).ns)
	if dropped > 0 {
		h.problem("bpf probe: the anti-spoof filter dropped %d allowed frames", dropped)
	}
	return nil
}

func (p prober) tunnel(payload int) error {
	h := p.h
	serverSide, clientSide := pipe.New()
	type served struct {
		t   *tunnel.Tunnel
		err error
	}
	ch := make(chan served, 1)
	go func() {
		t, err := tunnel.Serve(serverSide, tunnel.Credentials{"probe": "key"}, func(string) []byte { return nil })
		ch <- served{t, err}
	}()
	cli, err := tunnel.Dial(clientSide, "probe", "key")
	if err != nil {
		return err
	}
	srv := <-ch
	if srv.err != nil {
		return srv.err
	}
	f := newFlow()
	srv.t.OnFrame(func([]byte) { f.arrived() })
	fr := workloadFrame(payload, ethernet.MAC{2, 0, 0, 0, 0, 1})
	data := fr.Marshal()
	iters := p.n(200_000)
	ok := true
	res := probe(p.reps, iters, func() {
		ok = windowed(f, iters, func(int) {
			if cli.SendFrame(data) != nil {
				ok = false
			}
		}) && ok
	})
	if !ok {
		h.problem("tunnel probe: frames were not delivered")
	}
	h.set("tunnel.sendframe_ns", res.ns)
	h.set("tunnel.allocs_per_frame", res.allocs)
	cli.Close()
	srv.t.Close()
	return nil
}

// probeStore times Store.Create on a store already holding the
// workload's preloaded object count, with and without the WAL.
func (p prober) store(preload int) error {
	h := p.h
	dir := filepath.Join(h.opt.outDir, fmt.Sprintf("probe-wal-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	durable, wal, _, err := ctlplane.RecoverStore(ctlplane.StoreConfig{}, dir)
	if err != nil {
		return err
	}
	defer wal.Close()
	spec := func(i int) ctlplane.Spec {
		p := specPrefix(i>>10, i&1023).String()
		return ctlplane.Spec{Name: fmt.Sprintf("p-%05d", i), Owner: "bench", ASN: 64600, Prefixes: []string{p},
			Announcements: []ctlplane.Announcement{{Prefix: p, PoPs: []string{"pop-a"}}}}
	}
	creates := p.n(60*8) / 8
	walPath := filepath.Join(dir, "ctlplane.wal")
	for name, st := range map[string]*ctlplane.Store{"ctlplane.store_create_ms": durable, "ctlplane.store_create_nowal_ms": ctlplane.NewStore(ctlplane.StoreConfig{})} {
		for i := 0; i < preload; i++ {
			if _, _, err := st.Create(spec(i)); err != nil {
				return err
			}
		}
		var ms, grown []float64
		for i := 0; i < creates; i++ {
			before, _ := os.Stat(walPath)
			start := time.Now()
			if _, _, err := st.Create(spec(preload + i)); err != nil {
				return err
			}
			ms = append(ms, time.Since(start).Seconds()*1e3)
			after, _ := os.Stat(walPath)
			if before != nil && after != nil && after.Size() > before.Size() { // not across a compaction
				grown = append(grown, float64(after.Size()-before.Size()))
			}
		}
		h.set(name, median(ms))
		if st == durable {
			h.set("ctlplane.wal_bytes_per_commit", median(grown))
		}
	}
	return nil
}
