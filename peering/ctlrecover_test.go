package peering

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/ctlplane"
	"repro/internal/rib"
)

// crashSoakPlatform is the two-PoP dataplane the crash soak runs over.
// It deliberately has no control plane: the tests build (and kill, and
// rebuild) control planes over it, because the platform models the
// long-lived PoP routers that survive a peeringd restart.
func crashSoakPlatform(t *testing.T) *Platform {
	t.Helper()
	p := NewPlatform(PlatformConfig{ASN: 47065, Logf: t.Logf})
	popA, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	popB, err := p.AddPoP(PoPConfig{
		Name: "seattle", RouterID: addr("198.51.100.2"),
		LocalPool: pfx("127.66.0.0/16"), ExpLAN: pfx("100.66.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectBackbone(popA, popB, 400e6, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// startRecoverableCP builds a control plane over the platform with a
// durable state dir and optional crash injection.
func startRecoverableCP(t *testing.T, p *Platform, dir string, crasher *chaos.Crasher, onCrash func(any)) *ControlPlane {
	t.Helper()
	cfg := ControlPlaneConfig{
		Reconciler: ctlplane.ReconcilerConfig{
			Resync:         10 * time.Millisecond,
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     100 * time.Millisecond,
			ActuationGrace: 2 * time.Second,
			OnCrash:        onCrash,
		},
		StateDir: dir,
		Logf:     t.Logf,
	}
	if crasher != nil {
		cfg.CrashHook = crasher.Hook()
		cfg.Reconciler.CrashHook = crasher.Hook()
	}
	cp, err := NewControlPlane(p, cfg)
	if err != nil {
		t.Fatalf("NewControlPlane: %v", err)
	}
	return cp
}

func soakSpec(name, alloc, ann string, asn uint32) ctlplane.Spec {
	return ctlplane.Spec{
		Name: name, Owner: "alice", ASN: asn,
		Plan:          "crash/restart soak",
		Prefixes:      []string{alloc},
		Announcements: []ctlplane.Announcement{{Prefix: ann, PoPs: []string{"amsix", "seattle"}}},
	}
}

// managedConverged reports whether the reconciler has converged name at
// (or past) rev.
func managedConverged(cp *ControlPlane, name string, rev int64) func() bool {
	return func() bool {
		st, ok := cp.Reconciler.ObjectStatusFor(name)
		return ok && st.Phase == ctlplane.PhaseConverged && st.ConvergedRevision >= rev
	}
}

// routeAtom is one installed experiment route, identified by everything
// that must reconverge exactly — but not the next hop, which an adopted
// (graceful-restart-retained) route legitimately keeps from the dead
// process's tunnel allocation.
type routeAtom struct {
	pop    string
	prefix string
	owner  string
	id     uint32
	asPath string
}

// experimentAtoms snapshots the direct experiment routes owned by the
// given experiments across every PoP, counted so duplicates show up.
// Backbone mesh copies (peer "mesh:<pop>") are excluded by the owner
// filter.
func experimentAtoms(p *Platform, owners map[string]bool) map[routeAtom]int {
	atoms := make(map[routeAtom]int)
	for _, popName := range p.PoPs() {
		p.PoP(popName).Router.ExperimentRoutes().Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
			for _, path := range paths {
				if !owners[path.Peer] {
					continue
				}
				a := routeAtom{pop: popName, prefix: prefix.String(), owner: path.Peer, id: uint32(path.ID)}
				if path.Attrs != nil {
					a.asPath = fmt.Sprintf("%v", path.Attrs.ASPathFlat())
				}
				atoms[a]++
			}
			return true
		})
	}
	return atoms
}

// foreignExperimentOwners reports experiment-RIB owners that are neither
// live experiments nor backbone mesh relays: crash orphans.
func foreignExperimentOwners(p *Platform, live map[string]bool) []string {
	found := map[string]bool{}
	for _, popName := range p.PoPs() {
		p.PoP(popName).Router.ExperimentRoutes().Walk(func(_ netip.Prefix, paths []*rib.Path) bool {
			for _, path := range paths {
				if !live[path.Peer] && !strings.HasPrefix(path.Peer, "mesh:") {
					found[path.Peer] = true
				}
			}
			return true
		})
	}
	var out []string
	for name := range found {
		out = append(out, name)
	}
	return out
}

func auditEntries(p *Platform, experiment string) int {
	n := 0
	for _, e := range p.Engine.Audit() {
		if e.Experiment == experiment {
			n++
		}
	}
	return n
}

// killControlPlane simulates SIGKILL's effect on the network: every
// client transport the dead process held is severed abruptly — no BGP
// NOTIFICATION, no tunnel teardown handshake — exactly what the PoP
// routers see when the daemon is killed -9. The routers' graceful
// restart machinery retains the routes as stale.
func killControlPlane(cp *ControlPlane) {
	cp.act.mu.Lock()
	clients := make([]*Client, 0, len(cp.act.runtimes))
	for _, rt := range cp.act.runtimes {
		clients = append(clients, rt.client)
	}
	cp.act.mu.Unlock()
	for _, c := range clients {
		c.mu.Lock()
		conns := make([]*popConn, 0, len(c.conns))
		for _, pc := range c.conns {
			conns = append(conns, pc)
		}
		c.mu.Unlock()
		for _, pc := range conns {
			if tun := pc.transport(); tun != nil {
				tun.Close()
			}
		}
	}
}

// TestControlPlaneCrashRestartSoak is the crash-only acceptance test:
// the control plane is killed at each seeded injection point — before
// the WAL write, after the WAL write but before actuation, and between
// two actuations of one batch — and a fresh control plane recovered
// from the state directory must reconverge to exactly the no-crash
// state: no lost specs beyond the fail-closed contract, no duplicate
// routes, no orphans, and no §4.7 update budget burned re-announcing
// routes graceful restart already retained.
func TestControlPlaneCrashRestartSoak(t *testing.T) {
	cases := []struct {
		point string
		after int
		// inStore: the crash fires inside the test's own Store call (the
		// store commit path); otherwise it fires in the reconciler.
		inStore bool
		// wantExp2: the second spec made it into the durable log before
		// the crash, so recovery must finish converging it.
		wantExp2 bool
	}{
		{point: "pre-wal-write", after: 0, inStore: true, wantExp2: false},
		{point: "post-wal-pre-actuate", after: 0, inStore: true, wantExp2: true},
		// exp-two's first pass is 5 actions (ensure-experiment, two
		// ensure-sessions, two announces); after=4 crashes the batch
		// between the two announces.
		{point: "mid-batch", after: 4, inStore: false, wantExp2: true},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			p := crashSoakPlatform(t)
			dir := t.TempDir()
			crasher := chaos.NewCrasher()
			crashed := make(chan struct{})
			cp1 := startRecoverableCP(t, p, dir, crasher, func(any) { close(crashed) })

			// exp-one converges before the fault: the no-crash baseline.
			obj1, _, err := cp1.Store.Create(soakSpec("exp-one", "184.164.224.0/23", "184.164.224.0/24", expASN))
			if err != nil {
				t.Fatalf("Create exp-one: %v", err)
			}
			waitFor(t, 5*time.Second, "exp-one converged", managedConverged(cp1, "exp-one", obj1.Revision))
			owners := map[string]bool{"exp-one": true}
			baseline := experimentAtoms(p, owners)
			if len(baseline) != 2 {
				t.Fatalf("baseline = %v, want one direct route per PoP", baseline)
			}
			auditBase := auditEntries(p, "exp-one")

			// Arm the crash and drive the mutation that trips it.
			crasher.Arm(tc.point, tc.after)
			spec2 := soakSpec("exp-two", "184.164.228.0/23", "184.164.228.0/24", expASN+1)
			if tc.inStore {
				v := func() (v any) {
					defer func() { v = recover() }()
					cp1.Store.Create(spec2)
					return nil
				}()
				cpanic, ok := v.(chaos.CrashPanic)
				if !ok || cpanic.Point != tc.point {
					t.Fatalf("store crash point recovered %v, want CrashPanic{%s}", v, tc.point)
				}
			} else {
				if _, _, err := cp1.Store.Create(spec2); err != nil {
					t.Fatalf("Create exp-two: %v", err)
				}
				select {
				case <-crashed:
				case <-time.After(5 * time.Second):
					t.Fatal("armed reconciler crash never fired")
				}
			}
			if !crasher.Fired() {
				t.Fatal("crasher did not report firing")
			}

			// The process is dead: sever its transports abruptly and wait
			// for graceful restart to mark the retained routes stale.
			killControlPlane(cp1)
			for _, popName := range []string{"amsix", "seattle"} {
				popName := popName
				waitFor(t, 5*time.Second, "stale retention at "+popName, func() bool {
					return p.PoP(popName).Router.ExperimentRoutes().StaleCount("exp-one") > 0
				})
			}

			// init respawns peeringd over the same dataplane.
			cp2 := startRecoverableCP(t, p, dir, nil, nil)
			t.Cleanup(cp2.Close)

			waitFor(t, 5*time.Second, "exp-one converged", managedConverged(cp2, "exp-one", obj1.Revision))
			objs := cp2.Store.List()
			if tc.wantExp2 {
				owners["exp-two"] = true
				waitFor(t, 5*time.Second, "exp-two converged", managedConverged(cp2, "exp-two", 0))
				if len(objs) != 2 {
					t.Fatalf("recovered %d objects, want exp-one and exp-two: %+v", len(objs), objs)
				}
			} else {
				// The commit died before the durable write: fail-closed
				// means it never happened.
				if len(objs) != 1 || objs[0].Spec.Name != "exp-one" {
					t.Fatalf("recovered objects = %+v, want just exp-one", objs)
				}
				for _, prop := range p.Proposals() {
					if prop.Name == "exp-two" {
						t.Fatal("pre-wal-write crash leaked a proposal for the uncommitted spec")
					}
				}
			}

			// Exact reconvergence: exp-one's installed state is identical
			// to the no-crash baseline (same PoPs, prefixes, path IDs, AS
			// paths), exactly once each.
			got := experimentAtoms(p, owners)
			for atom, n := range got {
				if n != 1 {
					t.Fatalf("duplicate route after recovery: %+v x%d", atom, n)
				}
			}
			var exp2Atoms int
			for atom := range got {
				switch atom.owner {
				case "exp-one":
					if _, ok := baseline[atom]; !ok {
						t.Fatalf("exp-one atom %+v not in baseline %v", atom, baseline)
					}
				case "exp-two":
					exp2Atoms++
				}
			}
			for atom := range baseline {
				if _, ok := got[atom]; !ok {
					t.Fatalf("baseline atom %+v lost across recovery", atom)
				}
			}
			if tc.wantExp2 && exp2Atoms != 2 {
				t.Fatalf("exp-two has %d direct routes after recovery, want 2", exp2Atoms)
			}

			// No stale leftovers: every retained route was adopted (or
			// re-announced) and its stale mark cleared.
			for _, popName := range []string{"amsix", "seattle"} {
				table := p.PoP(popName).Router.ExperimentRoutes()
				for owner := range owners {
					if n := table.StaleCount(owner); n != 0 {
						t.Fatalf("%d stale %s routes at %s after recovery", n, owner, popName)
					}
				}
			}
			// No orphans: nothing in any experiment RIB belongs to an
			// experiment the recovered store does not know.
			if foreign := foreignExperimentOwners(p, owners); len(foreign) != 0 {
				t.Fatalf("orphan owners after recovery: %v", foreign)
			}

			// Budget-free adoption: recovery re-claimed exp-one's retained
			// routes without pushing a single new update through the
			// policy engine.
			if n := auditEntries(p, "exp-one"); n != auditBase {
				t.Fatalf("recovery burned update budget: %d audit entries, want %d", n, auditBase)
			}
		})
	}
}

// TestControlPlaneSweepsCrashOrphans covers the inverse failure: state
// actuated by a dead control plane whose spec did NOT survive (crash
// between actuating and logging). The recovered reconciler must notice
// the ownerless platform state and tear it down — nothing else ever
// will.
func TestControlPlaneSweepsCrashOrphans(t *testing.T) {
	p := crashSoakPlatform(t)

	// Hand-build the leftover: a Managed proposal whose client died with
	// the previous process, its announcement retained stale by graceful
	// restart.
	ghostPfx := pfx("184.164.230.0/24")
	if err := p.Submit(Proposal{
		Name: "ghost", Owner: "alice", Plan: "crash leftover",
		Prefixes: []netip.Prefix{ghostPfx}, ASNs: []uint32{expASN},
		Managed: true,
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	ghost := NewClient("ghost", key, expASN)
	ghost.GR = clientGRTime
	if err := ghost.OpenTunnel(p.PoP("seattle")); err != nil {
		t.Fatal(err)
	}
	if err := ghost.StartBGP("seattle"); err != nil {
		t.Fatal(err)
	}
	if err := ghost.WaitEstablished("seattle", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ghost.Announce("seattle", ghostPfx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "ghost route installed", func() bool {
		return len(directPaths(p, "seattle", ghostPfx, "ghost")) == 1
	})
	ghost.mu.Lock()
	pc := ghost.conns["seattle"]
	ghost.mu.Unlock()
	pc.transport().Close()
	waitFor(t, 5*time.Second, "ghost route retained stale", func() bool {
		return p.PoP("seattle").Router.ExperimentRoutes().StaleCount("ghost") > 0
	})

	// A fresh control plane with an empty desired state: the Managed
	// proposal is observable but desired nowhere.
	cp := startRecoverableCP(t, p, t.TempDir(), nil, nil)
	t.Cleanup(cp.Close)

	// A live experiment rides along untouched by the sweep.
	obj, _, err := cp.Store.Create(soakSpec("alive", "184.164.224.0/23", "184.164.224.0/24", expASN+1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "alive converged", managedConverged(cp, "alive", obj.Revision))

	waitFor(t, 5*time.Second, "orphan swept", func() bool {
		if len(directPaths(p, "seattle", ghostPfx, "ghost")) != 0 {
			return false
		}
		for _, prop := range p.Proposals() {
			if prop.Name == "ghost" {
				return false
			}
		}
		return true
	})
	if n := p.PoP("seattle").Router.ExperimentRoutes().StaleCount("ghost"); n != 0 {
		t.Fatalf("%d stale ghost routes survived the orphan sweep", n)
	}
	for _, popName := range []string{"amsix", "seattle"} {
		if n := len(directPaths(p, popName, pfx("184.164.224.0/24"), "alive")); n != 1 {
			t.Fatalf("orphan sweep disturbed the live experiment at %s: %d routes", popName, n)
		}
	}
}
