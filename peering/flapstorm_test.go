package peering

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/guard"
	"repro/internal/inet"
	"repro/internal/telemetry"
)

const flapperASN = expASN + 1

// TestFlapStormAvailability is the convergence-safety soak: one
// experiment flaps 10k prefixes while a victim experiment holds a
// stable announcement. The damping layer must suppress the flapping
// prefixes, the watchdog must walk the PoP through degraded/shedding
// and back, and through all of it the victim's route stays advertised
// and the neighbor session never drops.
func TestFlapStormAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("flap-storm soak skipped in -short mode")
	}
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)

	// Transitions recorded via the chained OnChange hook.
	var (
		transMu  sync.Mutex
		maxState guard.State
		finals   []guard.State
	)
	gcfg := DefaultGuardConfig()
	gcfg.SampleInterval = 50 * time.Millisecond
	gcfg.Health.Degraded = guard.Limits{UpdateRate: 200}
	gcfg.Health.Shedding = guard.Limits{UpdateRate: 1_000}
	gcfg.Health.RecoverSamples = 2
	gcfg.Health.OnChange = func(from, to guard.State, why string) {
		transMu.Lock()
		if to > maxState {
			maxState = to
		}
		finals = append(finals, to)
		transMu.Unlock()
		t.Logf("health: %s -> %s (%s)", from, to, why)
	}

	p := NewPlatform(PlatformConfig{
		ASN: 47065, Topology: topo,
		Damping:      &guard.DampingConfig{HalfLife: 300 * time.Millisecond},
		NeighborMRAI: 50 * time.Millisecond,
		Guard:        gcfg,
	})
	defer p.StopGuard()
	pop, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	transit, err := pop.ConnectTransit(1000, 20)
	if err != nil {
		t.Fatal(err)
	}

	// Victim: one stable announcement established before the storm.
	if err := p.Submit(Proposal{
		Name: "victim", Owner: "alice", Plan: "stable anycast",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{expASN},
	}); err != nil {
		t.Fatal(err)
	}
	victimKey, err := p.Approve("victim", nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := NewClient("victim", victimKey, expASN)
	// Flapper: a /8 allocation covering the 10k storm prefixes.
	if err := p.Submit(Proposal{
		Name: "flapper", Owner: "mallory", Plan: "convergence stress",
		Prefixes: []netip.Prefix{pfx("10.0.0.0/8")},
		ASNs:     []uint32{flapperASN},
	}); err != nil {
		t.Fatal(err)
	}
	flapKey, err := p.Approve("flapper", nil)
	if err != nil {
		t.Fatal(err)
	}
	flapper := NewClient("flapper", flapKey, flapperASN)

	for _, c := range []*Client{victim, flapper} {
		if err := c.OpenTunnel(pop); err != nil {
			t.Fatal(err)
		}
		if err := c.StartBGP("amsix"); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	victimPrefix := pfx("184.164.224.0/24")
	if err := victim.Announce("amsix", victimPrefix); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "victim route reaches the transit neighbor", func() bool {
		return pop.Router.ExperimentRoutes().Best(victimPrefix) != nil &&
			topo.Reachable(1000, victimPrefix)
	})

	reg := telemetry.Default()
	baseSuppressed := reg.Value("guard_damping_suppressed_total")
	baseReconnects := reg.Value("bgp_reconnects_total")
	baseSessionFlaps := reg.Value("bgp_session_flaps_total")
	baseTransitions := reg.Value("guard_health_transitions_total")

	// The storm: 10k prefixes, each flapped to suppression in rapid
	// succession (announce, withdraw, announce, withdraw, announce —
	// the last announce is charged past the suppress threshold and
	// rejected as damped).
	const storm = 10_000
	stormPrefix := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 0}), 24)
	}
	for i := 0; i < storm; i++ {
		pfx := stormPrefix(i)
		for round := 0; round < 2; round++ {
			if err := flapper.Announce("amsix", pfx); err != nil {
				t.Fatal(err)
			}
			if err := flapper.Withdraw("amsix", pfx, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := flapper.Announce("amsix", pfx); err != nil {
			t.Fatal(err)
		}
	}

	// Suppression: (nearly) every storm prefix was driven past the
	// suppress threshold exactly once.
	waitFor(t, 20*time.Second, "storm prefixes suppressed", func() bool {
		return reg.Value("guard_damping_suppressed_total")-baseSuppressed >= storm*95/100
	})
	// The watchdog saw the overload and walked the shedding ladder.
	waitFor(t, 20*time.Second, "watchdog reached shedding", func() bool {
		transMu.Lock()
		defer transMu.Unlock()
		return maxState == guard.Shedding
	})
	// Availability through the storm: the victim's route never left the
	// platform, and the neighbor session never dropped.
	if pop.Router.ExperimentRoutes().Best(victimPrefix) == nil {
		t.Error("victim route evicted from experiment RIB during storm")
	}
	if !topo.Reachable(1000, victimPrefix) {
		t.Error("victim route withdrawn from the transit neighbor during storm")
	}
	if sess := transit.Session(); sess == nil || sess.State() != bgp.StateEstablished {
		t.Error("transit neighbor session not established after storm")
	}
	if d := reg.Value("bgp_reconnects_total") - baseReconnects; d != 0 {
		t.Errorf("bgp_reconnects_total rose by %v during storm, want 0", d)
	}
	if d := reg.Value("bgp_session_flaps_total") - baseSessionFlaps; d != 0 {
		t.Errorf("bgp_session_flaps_total rose by %v during storm, want 0", d)
	}
	// The storm's accepted re-advertisements were paced: MRAI coalescing
	// absorbed repeats on the neighbor session (the queued adverts are
	// then cancelled by the storm's own withdrawals, so the evidence is
	// the absorption counter, not flushed batches).
	if sess := transit.Session(); sess != nil && sess.MRAISuppressed.Load() == 0 {
		t.Error("MRAI coalescing absorbed no updates on the neighbor session during storm")
	}

	// Recovery: penalties decay, reuse timers drain the suppressed set,
	// and the watchdog steps the PoP back to healthy.
	waitFor(t, 20*time.Second, "damper drains after storm", func() bool {
		return reg.Value("guard_damping_suppressed_current") == 0
	})
	waitFor(t, 20*time.Second, "PoP returns to healthy", func() bool {
		return p.PoPHealth("amsix") == guard.Healthy
	})
	// Full ladder in the metrics: at least the step up plus the two
	// hysteretic steps down.
	if got := reg.Value("guard_health_transitions_total") - baseTransitions; got < 3 {
		t.Errorf("guard_health_transitions_total rose by %v, want >= 3", got)
	}
	transMu.Lock()
	last := finals[len(finals)-1]
	transMu.Unlock()
	if last != guard.Healthy {
		t.Errorf("final health transition landed on %s, want healthy", last)
	}

	// The control plane is fully live after the storm: the victim can
	// still update its announcement end to end.
	if err := victim.Withdraw("amsix", victimPrefix, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "post-storm withdrawal propagates", func() bool {
		return pop.Router.ExperimentRoutes().Best(victimPrefix) == nil
	})
	if err := victim.Announce("amsix", victimPrefix); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "post-storm announcement propagates", func() bool {
		return topo.Reachable(1000, victimPrefix)
	})
}
