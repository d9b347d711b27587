package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/pipe"
	"repro/internal/telemetry"
	"repro/peering"
)

const (
	opAnnounce         = "announce-op"
	opConverge         = "converge-op"
	spanClientAnnounce = "client-announce"
	spanHTTP           = "http"

	apiNbrsPerPoP = 4
	// apiBatch specs are created one after the other in one round of the
	// API phase, and at least minAPIRounds rounds run; a traced run then
	// times isolatedSamples creates one at a time.
	apiBatch        = 32
	minAPIRounds    = 5
	isolatedSamples = 12
	// convergeTimeout is the contract's bound: a spec not converged
	// within it is a failed operation.
	convergeTimeout = 10 * time.Second
	// productionResync is the reconciler's default resync period.
	productionResync = 250 * time.Millisecond
)

// bulkAllocation is the benchmark experiment's own allocation: 1 024
// /24s, announced and withdrawn by the round.
var bulkAllocation = netip.MustParsePrefix("10.64.0.0/14")

func bulkPrefix(k int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(64 + k>>8), byte(k), 0}), 24)
}

// specPrefix is the /24 of spec number i in block b (0 preloaded, 1
// sampled).
func specPrefix(b, i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(16 + 4*b + i>>8), byte(i), 0}), 24)
}

// apiSink is what the eight neighbor-side sessions report into: bulk
// routes are counted, spec routes are tracked per prefix.
type apiSink struct {
	routes, want atomic.Int64
	lastAt       atomic.Int64
	gate         *gate
	epoch        time.Time

	mu        sync.Mutex
	present   map[netip.Prefix]int // neighbors currently holding a spec prefix
	presentAt map[netip.Prefix]int64
	waitFor   netip.Prefix
	waitCount int
	specGate  *gate
}

func (k *apiSink) onUpdate(u *bgp.Update) {
	var n int64
	track := func(p netip.Prefix, delta int) {
		if bulkAllocation.Contains(p.Addr()) {
			n++
			return
		}
		k.mu.Lock()
		k.present[p] += delta
		k.presentAt[p] = int64(time.Since(k.epoch))
		if p == k.waitFor && k.present[p] == k.waitCount {
			k.specGate.open()
		}
		k.mu.Unlock()
	}
	for _, w := range u.Withdrawn {
		track(w.Prefix, -1)
	}
	for _, r := range u.NLRI {
		track(r.Prefix, +1)
	}
	if n > 0 && k.routes.Add(n) == k.want.Load() {
		k.lastAt.Store(int64(time.Since(k.epoch)))
		k.gate.open()
	}
}

// awaitPresent waits until count neighbors hold prefix and returns when
// the last of them got (or lost) it, in ns since the epoch.
func (k *apiSink) awaitPresent(prefix netip.Prefix, count int) (int64, bool) {
	k.mu.Lock()
	k.specGate.drain()
	k.waitFor, k.waitCount = prefix, count
	ok := k.present[prefix] == count
	k.mu.Unlock()
	if !ok && !k.specGate.wait() {
		return 0, false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.waitFor = netip.Prefix{}
	return k.presentAt[prefix], true
}

// sseEvent is one /v1/watch event the benchmark acts on.
type sseEvent struct {
	at    int64 // receipt, ns since the epoch
	name  string
	phase string // reconcile stream
	kind  string // store stream
}

// apiPath is a two-PoP platform with a WAL-backed control plane served
// over loopback HTTP, plus one hand-driven experiment for the reverse
// update direction.
type apiPath struct {
	shape    apiShape
	rec      *recorder
	platform *peering.Platform
	cp       *peering.ControlPlane
	srv      *httptest.Server
	api      *http.Client // one keep-alive connection
	stateDir string
	sessions []*bgp.Session
	client   *peering.Client
	sink     *apiSink
	bulk     []netip.Prefix // the round's /24s, in seeded order
	// rng draws the gap before each isolated create (isolatedConverge).
	rng    *rand.Rand
	resync time.Duration

	events     chan sseEvent
	watchClose func()

	attempted, failed int64
}

func newAPIPath(seed int64, sh apiShape, rec *recorder, outDir string, epoch time.Time, resync time.Duration) (*apiPath, error) {
	if resync <= 0 {
		resync = productionResync
	}
	a := &apiPath{shape: sh, rec: rec, events: make(chan sseEvent, 1<<14), rng: rand.New(rand.NewSource(seed)), resync: resync}
	// The seed orders the /24s a round announces.
	for _, k := range a.rng.Perm(sh.prefixPerRound) {
		a.bulk = append(a.bulk, bulkPrefix(k))
	}
	a.sink = &apiSink{gate: newGate(), specGate: newGate(), epoch: epoch,
		present: make(map[netip.Prefix]int), presentAt: make(map[netip.Prefix]int64)}
	a.platform = peering.NewPlatform(peering.PlatformConfig{ASN: platformASN})
	// The §4.7 daily budget would end the run after 144 updates a prefix.
	a.platform.Engine.DailyUpdateLimit = 1 << 30
	var pops []*peering.PoP
	for i, name := range []string{"pop-a", "pop-b"} {
		pop, err := a.platform.AddPoP(peering.PoPConfig{
			Name: name, RouterID: netip.AddrFrom4([4]byte{10, 255, 2, byte(i + 1)}),
			LocalPool: netip.PrefixFrom(netip.AddrFrom4([4]byte{127, byte(65 + i), 0, 0}), 16),
			// A /16: every spec's experiment takes a tunnel address here.
			ExpLAN: netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(65 + i), 0, 0}), 16),
		})
		if err != nil {
			return nil, err
		}
		pops = append(pops, pop)
		addr := func(j int) netip.Addr { return netip.AddrFrom4([4]byte{198, byte(20 + i), 0, byte(j + 1)}) }
		newNeighborLAN(pop.Router, "nbr0", netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(20 + i), 255, 254}), 16), apiNbrsPerPoP, addr, nil)
		for j := 0; j < apiNbrsPerPoP; j++ {
			routerEnd, peerEnd := pipe.New()
			var conn net.Conn = routerEnd
			if rec != nil {
				conn = rec.wrap(conn, "", spanNbrWrite)
			}
			asn := neighborASN0 + uint32(i*apiNbrsPerPoP+j)
			if _, err := pop.Router.AddNeighbor(core.NeighborConfig{
				Name: fmt.Sprintf("%s-n%d", name, j), ID: a.platform.NextNeighborID(), ASN: asn,
				Addr: addr(j), Interface: "nbr0", Conn: conn,
			}); err != nil {
				return nil, err
			}
			s := bgp.NewSession(peerEnd, bgp.Config{LocalASN: asn, RemoteASN: platformASN, LocalID: addr(j), OnUpdate: a.sink.onUpdate})
			go s.Run()
			a.sessions = append(a.sessions, s)
		}
	}
	if err := a.platform.ConnectBackbone(pops[0], pops[1], 400e6, 30*time.Millisecond); err != nil {
		return nil, err
	}
	if err := waitEstablished(a.sessions...); err != nil {
		return nil, err
	}

	a.stateDir = filepath.Join(outDir, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(a.stateDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	a.cp, err = peering.NewControlPlane(a.platform, peering.ControlPlaneConfig{
		StateDir: a.stateDir,
		// Removes the 5 ms-per-action pacing sleep, which would otherwise
		// be most of every converge sample.
		Reconciler: ctlplane.ReconcilerConfig{MaxActionsPerSecond: reconcilerActionsPerSecond, Resync: resync},
	})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	a.cp.API.Register(mux)
	a.srv = httptest.NewServer(mux)
	a.api = &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	if err := a.watch(); err != nil {
		return nil, err
	}

	// The hand-driven experiment: approved through the §4.6 workflow,
	// attached at pop-a through the production tunnel.
	if err := a.platform.Submit(peering.Proposal{
		Name: "bench", Owner: "bench", Plan: "reverse update direction",
		Prefixes: []netip.Prefix{bulkAllocation}, ASNs: []uint32{expASN0},
	}); err != nil {
		return nil, err
	}
	key, err := a.platform.Approve("bench", nil)
	if err != nil {
		return nil, err
	}
	a.client = peering.NewClient("bench", key, expASN0)
	if err := a.client.OpenTunnel(pops[0]); err != nil {
		return nil, err
	}
	if err := a.client.StartBGP("pop-a"); err != nil {
		return nil, err
	}
	return a, a.client.WaitEstablished("pop-a", fenceTimeout)
}

const reconcilerActionsPerSecond = 1e6

// watch subscribes to /v1/watch (SSE, no polling) on its own connection
// and feeds reconcile and store events to a.events.
func (a *apiPath) watch() error {
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get(a.srv.URL + "/v1/watch?types=reconcile,store&queue=65536")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("watch: HTTP %d", resp.StatusCode)
	}
	done := make(chan struct{})
	a.watchClose = func() { resp.Body.Close(); tr.CloseIdleConnections(); <-done }
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var e struct {
				Data struct {
					Name  string `json:"name"`
					Phase string `json:"phase"`
					Kind  string `json:"kind"`
				} `json:"data"`
			}
			if json.Unmarshal([]byte(line), &e) != nil {
				continue
			}
			a.events <- sseEvent{at: int64(time.Since(a.sink.epoch)), name: e.Data.Name, phase: e.Data.Phase, kind: e.Data.Kind}
		}
	}()
	return nil
}

// awaitEvent consumes watch events until match returns true.
func (a *apiPath) awaitEvent(match func(sseEvent) bool) (sseEvent, bool) {
	timeout := time.NewTimer(convergeTimeout)
	defer timeout.Stop()
	for {
		select {
		case e := <-a.events:
			if match(e) {
				return e, true
			}
		case <-timeout.C:
			return sseEvent{}, false
		}
	}
}

// call performs one API request on the keep-alive connection and returns
// the status, the body and the round-trip time.
func (a *apiPath) call(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, a.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := a.api.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if a.rec != nil {
		end := a.rec.now()
		a.rec.add(spanHTTP+" "+method, end-int64(elapsed), end, len(data))
	}
	a.attempted++
	if resp.StatusCode >= 400 {
		a.failed++
	}
	return resp.StatusCode, data, elapsed, err
}

// specBody pre-builds the JSON of one spec. A spec with announce set
// announces its /24 from pop (alternating by number, so both routers
// carry experiments); otherwise it only registers.
func specBody(name string, n int, prefix netip.Prefix, announce bool, pop string) []byte {
	spec := ctlplane.Spec{Name: name, Owner: "bench", ASN: uint32(64600 + n%400), Prefixes: []string{prefix.String()}}
	if announce {
		spec.Announcements = []ctlplane.Announcement{{Prefix: prefix.String(), PoPs: []string{pop}}}
	}
	data, _ := json.Marshal(spec)
	return data
}

// preload creates the shape's specs and waits until every one has its
// route at all eight neighbors and has converged.
func (a *apiPath) preload() error {
	pops := []string{"pop-a", "pop-b"}
	pending := make(map[string]bool)
	for i := 0; i < a.shape.preload; i++ {
		name := fmt.Sprintf("pre-%04d", i)
		code, body, _, err := a.call("POST", "/v1/experiments", specBody(name, i, specPrefix(0, i), true, pops[i%2]))
		if err != nil || code != http.StatusCreated {
			return fmt.Errorf("preload %s: HTTP %d %s (%v)", name, code, body, err)
		}
		pending[name] = true
	}
	for i := 0; i < a.shape.preload; i++ {
		if _, ok := a.sink.awaitPresent(specPrefix(0, i), len(a.sessions)); !ok {
			return fmt.Errorf("preload: %s did not reach every neighbor", specPrefix(0, i))
		}
	}
	// With every route out, the last spec's `converged` would still wait
	// for the resync tick (see isolatedConverge); set-up does not idle
	// until it.
	a.cp.Reconciler.Kick()
	for len(pending) > 0 {
		e, ok := a.awaitEvent(func(e sseEvent) bool { return e.phase == string(ctlplane.PhaseConverged) && pending[e.name] })
		if !ok {
			return fmt.Errorf("preload: %d specs did not converge", len(pending))
		}
		delete(pending, e.name)
	}
	return nil
}

// announceRound announces then withdraws the shape's prefixes through
// Client.Announce/Withdraw and waits until every neighbor session has
// seen every one of them. It returns the route updates delivered.
func (a *apiPath) announceRound() bool {
	n := a.shape.prefixPerRound
	a.sink.want.Store(a.sink.routes.Load() + int64(2*n*len(a.sessions)))
	for k := 0; k < n; k++ {
		if a.client.Announce("pop-a", a.bulk[k]) != nil {
			return false
		}
	}
	for k := 0; k < n; k++ {
		if a.client.Withdraw("pop-a", a.bulk[k], 0) != nil {
			return false
		}
	}
	return a.sink.gate.wait()
}

// announceSample times one Client.Announce to the last neighbor's
// OnUpdate (µs), then withdraws it untimed. Negative = lost.
func (a *apiPath) announceSample(k int) float64 {
	p := a.bulk[k%len(a.bulk)]
	all := int64(len(a.sessions))
	a.attempted += 2 * all
	a.sink.want.Store(a.sink.routes.Load() + all)
	traced := a.rec.active()
	if traced {
		a.rec.beginOp(opAnnounce)
	}
	start := int64(time.Since(a.sink.epoch))
	err := a.client.Announce("pop-a", p)
	called := int64(time.Since(a.sink.epoch))
	if err != nil || !a.sink.gate.wait() {
		a.failed += 2 * all
		return -1
	}
	end := a.sink.lastAt.Load()
	if traced {
		a.rec.add(spanClientAnnounce, start, called, 0)
		a.rec.endOp(start, end)
	}
	a.sink.want.Store(a.sink.routes.Load() + all)
	if a.client.Withdraw("pop-a", p, 0) != nil || !a.sink.gate.wait() {
		a.failed += all
	}
	return float64(end-start) / 1e3
}

// apiSpec is one announcing spec the benchmark creates and deletes again.
type apiSpec struct {
	name   string
	prefix netip.Prefix
	body   []byte
	start  int64 // POST, ns since the epoch
	ok     bool
}

// newSpecs pre-builds n announcing specs, numbered from *next on.
func (a *apiPath) newSpecs(n int, next *int) []apiSpec {
	specs := make([]apiSpec, n)
	for k := range specs {
		i := *next
		*next++
		sp := &specs[k]
		sp.name, sp.prefix = fmt.Sprintf("smp-%05d", i), specPrefix(1, i&1023)
		sp.body = specBody(sp.name, i, sp.prefix, true, "pop-a")
	}
	a.attempted += int64(n)
	return specs
}

// createSpec posts sp and follows it to its route at every neighbor: the
// commit and the reconciler's kick pass (WAL fsync, ensure-experiment,
// tunnel, session, announce, propagation). It returns POST → 201 and
// POST → the last neighbor's OnUpdate, in ms, and sets sp.ok.
func (a *apiPath) createSpec(sp *apiSpec) (commitMs, actuateMs float64) {
	traced := a.rec.active()
	if traced {
		a.rec.beginOp(opConverge)
	}
	sp.start = int64(time.Since(a.sink.epoch))
	code, _, rtt, err := a.call("POST", "/v1/experiments", sp.body)
	if err != nil || code != http.StatusCreated {
		return 0, 0
	}
	at, ok := a.sink.awaitPresent(sp.prefix, len(a.sessions))
	if traced {
		a.rec.endOp(sp.start, at)
	}
	sp.ok = ok
	return rtt.Seconds() * 1e3, float64(at-sp.start) / 1e6
}

// awaitEach consumes watch events until each of specs that is still ok
// has had one that match accepts, and hands it to each (nil to ignore).
// A spec whose event does not come within convergeTimeout is no longer ok.
func (a *apiPath) awaitEach(specs []apiSpec, match func(sseEvent) bool, each func(*apiSpec, sseEvent)) {
	pending := make(map[string]*apiSpec, len(specs))
	for k := range specs {
		if specs[k].ok {
			pending[specs[k].name] = &specs[k]
		}
	}
	for len(pending) > 0 {
		ev, ok := a.awaitEvent(func(e sseEvent) bool { return pending[e.name] != nil && match(e) })
		if !ok {
			for _, sp := range pending {
				sp.ok = false
			}
			return
		}
		if each != nil {
			each(pending[ev.name], ev)
		}
		delete(pending, ev.name)
	}
}

func converged(e sseEvent) bool { return e.phase == string(ctlplane.PhaseConverged) }

// deleteSpecs deletes the specs and follows them to removed (SSE) with
// every route gone, then books the ones that failed anywhere on the way.
func (a *apiPath) deleteSpecs(specs []apiSpec) {
	for k := range specs {
		sp := &specs[k]
		if sp.ok {
			code, _, _, err := a.call("DELETE", "/v1/experiments/"+sp.name, nil)
			sp.ok = err == nil && code == http.StatusAccepted
		}
	}
	a.awaitEach(specs, func(e sseEvent) bool { return e.kind == string(ctlplane.ChangeRemoved) }, nil)
	for k := range specs {
		sp := &specs[k]
		if sp.ok {
			_, sp.ok = a.sink.awaitPresent(sp.prefix, 0)
		}
		if !sp.ok {
			a.failed++
		}
	}
}

// apiStats is what the API rounds measured: the rounds themselves and,
// per spec, the latencies two layer metrics report.
type apiStats struct {
	rounds    roundSeries // specs created and actuated per second
	walBytes  []float64   // per round: bytes the WAL grew by ÷ specs
	commitMs  []float64   // POST → 201
	actuateMs []float64   // POST → route at every neighbor
}

// walSize is the size of the control plane's write-ahead log.
func (a *apiPath) walSize() int64 {
	if fi, err := os.Stat(filepath.Join(a.stateDir, "ctlplane.wal")); err == nil {
		return fi.Size()
	}
	return 0
}

// apiRound is one round of the API phase: one closed-loop client creates
// apiBatch announcing specs, each followed to its route at every neighbor
// before the next POST. That much is the timed window. The batch is then
// followed to `converged` (SSE, no polling; the last spec's would wait
// for the resync tick, so the reconciler is kicked instead of idling),
// deleted, and followed to removed with every route gone.
func (a *apiPath) apiRound(st *apiStats, next *int) {
	specs := a.newSpecs(apiBatch, next)
	for len(a.events) > 0 { // stale events of earlier rounds
		<-a.events
	}
	wal := a.walSize()
	st.rounds.timed(len(specs), func() {
		for k := range specs {
			commit, actuate := a.createSpec(&specs[k])
			if specs[k].ok {
				st.commitMs, st.actuateMs = append(st.commitMs, commit), append(st.actuateMs, actuate)
			}
		}
	})
	if grown := a.walSize() - wal; grown > 0 { // not across a compaction
		st.walBytes = append(st.walBytes, float64(grown)/float64(len(specs)))
	}
	a.cp.Reconciler.Kick()
	a.awaitEach(specs, converged, nil)
	a.deleteSpecs(specs)
}

// isolatedConverge times POST → `converged` for n specs created one at a
// time with nothing else committing: the issue's api_converge_p50_ms. The
// reconciler reports `converged` only from the pass after the kick pass,
// and nothing kicks that one (a later commit would, which is why the
// specs of a round converge within milliseconds of each other): it is the
// next resync tick. A seeded gap before each create puts the creates at
// every offset into the resync period. It returns, per spec, the latency
// (ms), the reconcile passes it spanned and the actions it took.
func (a *apiPath) isolatedConverge(n int, next *int) (ms, passes, actions []float64) {
	specs := a.newSpecs(n, next)
	for k := range specs {
		sp := &specs[k]
		time.Sleep(time.Duration(a.rng.Int63n(int64(a.resync))))
		for len(a.events) > 0 {
			<-a.events
		}
		runs := telemetry.Default().Value("ctlplane_reconcile_runs_total")
		a.createSpec(sp)
		a.awaitEach(specs[k:k+1], converged, func(sp *apiSpec, ev sseEvent) {
			ms = append(ms, float64(ev.at-sp.start)/1e6)
			passes = append(passes, telemetry.Default().Value("ctlplane_reconcile_runs_total")-runs)
		})
		if !sp.ok {
			continue
		}
		if code, data, _, err := a.call("GET", "/v1/experiments/"+sp.name, nil); err == nil && code == http.StatusOK {
			var view struct {
				Status *ctlplane.ObjectStatus `json:"status"`
			}
			if json.Unmarshal(data, &view) == nil && view.Status != nil {
				actions = append(actions, float64(view.Status.Actions))
			}
		}
	}
	a.deleteSpecs(specs)
	return ms, passes, actions
}

func (a *apiPath) close() {
	_ = a.client.StopBGP("pop-a")
	_ = a.client.CloseTunnel("pop-a")
	a.watchClose()
	a.api.CloseIdleConnections()
	a.srv.Close()
	a.cp.Close()
	for _, s := range a.sessions {
		s.Close()
	}
	_ = a.platform.Close()
	_ = os.RemoveAll(a.stateDir)
}

// prepareAPIPath builds the two-PoP platform and its control plane and
// returns the timed phases of the reverse update direction (announce
// rounds) and of the API (create rounds). An untraced run reports their
// counts; a traced run their rates, the latencies, and what the spans say
// about the layers.
func prepareAPIPath(h *harness, sh shape) (*pathRun, error) {
	as, w := sh.api, sh.weights
	setupStart := time.Now()
	a, err := newAPIPath(h.opt.seed, as, h.rec, h.opt.outDir, h.opt.processStart, h.opt.resync)
	if err != nil {
		return nil, err
	}
	if err := a.preload(); err != nil {
		a.close()
		return nil, err
	}
	if !a.announceRound() { // first use of every prefix: rate-limit history, ARP, pools
		a.close()
		return nil, fmt.Errorf("warm-up announce round was not delivered")
	}
	h.addSetup("api", time.Since(setupStart))
	fmt.Printf("note reconciler MaxActionsPerSecond=%g (default 200 would add a 5 ms pacing sleep per action)\n", float64(reconcilerActionsPerSecond))

	var rounds roundSeries
	var api apiStats
	perRound := 2 * as.prefixPerRound
	specs := 0
	run := &pathRun{phases: []*phase{
		{weight: w.announce, step: func() {
			var ok bool
			rounds.timed(perRound, func() { ok = a.announceRound() })
			a.attempted += int64(perRound * len(a.sessions))
			if !ok {
				a.failed += int64(perRound * len(a.sessions))
			}
		}},
		{weight: w.api, min: min(minAPIRounds, h.opt.minRounds), step: func() { a.apiRound(&api, &specs) }},
	}}
	run.finish = func() error {
		defer a.close()
		h.rate("core.announce_routes_per_s", &rounds)
		h.rate("ctlplane.api_specs_per_s", &api.rounds)
		if h.opt.trace {
			a.tracedExtras(h, &api, &specs)
		} else {
			h.set("announce_allocs_per_route", median(rounds.allocs))
			h.set("api_allocs_per_spec", median(api.rounds.allocs))
			h.set("api_wal_bytes_per_spec", median(api.walBytes))
		}
		// Every preloaded spec must still be converged with its route out.
		a.sink.mu.Lock()
		for i := 0; i < as.preload; i++ {
			if got := a.sink.present[specPrefix(0, i)]; got != len(a.sessions) {
				h.problem("api path: preloaded spec %d's route is at %d of %d neighbors", i, got, len(a.sessions))
			}
		}
		a.sink.mu.Unlock()
		h.ops(a.attempted, a.failed)
		return nil
	}
	return run, nil
}

// tracedExtras samples the announce and converge latencies and derives
// the API path's layer metrics.
func (a *apiPath) tracedExtras(h *harness, api *apiStats, specs *int) {
	// One Client.Announce on the quiescent platform: first with the
	// recorder off, for the p50, then with it on, for the spans.
	n := 0
	sampleN := func() (samples []float64) {
		for i := 0; i < h.opt.samples; i++ {
			n++
			if v := a.announceSample(n); v >= 0 {
				samples = append(samples, v)
			}
		}
		return samples
	}
	h.latency("core.announce_propagate_p50_us", sampleN())
	h.rec.off.Store(false)
	defer h.rec.off.Store(true)
	sampleN()
	var calls []float64
	for _, spans := range h.rec.opSpans(opAnnounce) {
		for _, s := range spans[1:] {
			if s.Name == spanClientAnnounce {
				calls = append(calls, float64(s.End-s.Start)/1e3)
			}
		}
	}
	h.set("peering.client_announce_us", median(calls))
	sync, _, _ := h.rec.fanoutTimes(opAnnounce, spanClientAnnounce, spanNbrWrite)
	h.set("core.announce_sync_us", sync)

	h.latency("ctlplane.api_commit_p50_ms", api.commitMs)
	h.latency("ctlplane.api_actuate_p50_ms", api.actuateMs)
	var status []float64
	for i := 0; i < 30; i++ {
		if _, _, rtt, err := a.call("GET", "/v1/status", nil); err == nil {
			status = append(status, rtt.Seconds()*1e3)
		}
	}
	h.set("ctlplane.http_overhead_ms", median(status))

	converge, passes, actions := a.isolatedConverge(min(isolatedSamples, h.opt.samples), specs)
	h.latency("ctlplane.api_converge_p50_ms", converge)
	h.set("ctlplane.actions_per_converge", median(actions))
	h.set("ctlplane.reconcile_passes_per_converge", median(passes))
	// A create that waited most of a resync period for `converged`: with
	// creates at every offset into the period, about a fifth of them.
	waited := 0
	for _, ms := range converge {
		if ms > 0.8*a.resync.Seconds()*1e3 {
			waited++
		}
	}
	h.set("ctlplane.tick_wait_frac", float64(waited)/float64(max(len(converge), 1)))
}
