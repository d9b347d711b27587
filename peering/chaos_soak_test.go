package peering

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/chaos"
	"repro/internal/inet"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// chaosTestbed is multiPoPTestbed with a fault injector threaded through
// every transport; the chaos platform supervises the client's sessions
// too.
func chaosTestbed(t *testing.T) (*Platform, *PoP, *PoP, *Client, *chaos.Injector) {
	t.Helper()
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)

	inj := chaos.New(chaos.Config{Seed: 7, Logf: t.Logf})
	p := NewPlatform(PlatformConfig{ASN: 47065, Topology: topo, Chaos: inj})
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
	if _, err := popA.ConnectTransit(1000, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := popB.ConnectPeer(10000, 20); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Proposal{
		Name: "soak", Owner: "alice", Plan: "chaos soak",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{expASN},
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("soak", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("soak", key, expASN)
	return p, popA, popB, c, inj
}

// clientView canonicalizes a client's learned routes at a PoP by
// prefix, path ID, and AS path. Next hops are excluded: a reconnected
// tunnel is assigned a fresh address, but the routes themselves must
// come back identical.
func clientView(c *Client, popName string) string {
	var b strings.Builder
	for _, p := range c.Routes(popName) {
		fmt.Fprintf(&b, "%s|%d|%v\n", p.Prefix, p.ID, p.Attrs.ASPathFlat())
	}
	return b.String()
}

// tableView canonicalizes a RIB by prefix, ID, and owner.
func tableView(tbl *rib.Table) string {
	var lines []string
	tbl.Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
		for _, p := range paths {
			lines = append(lines, fmt.Sprintf("%s|%d|%s", prefix, p.ID, p.Peer))
		}
		return true
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// tableStale counts stale paths in a RIB.
func tableStale(tbl *rib.Table) int {
	n := 0
	tbl.Walk(func(_ netip.Prefix, paths []*rib.Path) bool {
		for _, p := range paths {
			if p.Stale {
				n++
			}
		}
		return true
	})
	return n
}

// TestChaosSoakAllSessionClassesRecover is the PR's end-to-end soak: a
// two-PoP platform with every transport behind the fault injector takes
// a scripted kill of each session class — neighbor, experiment, tunnel,
// backbone, plus byte corruption, a link flap, and a whole-PoP
// partition — and after every fault all sessions re-establish (bounded
// backoff), graceful restart retains routes until End-of-RIB, and the
// RIBs reconverge to the no-fault baseline.
func TestChaosSoakAllSessionClassesRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	p, popA, popB, c, inj := chaosTestbed(t)
	reg := telemetry.Default()
	faultsBefore := reg.Value("chaos_faults_total")

	for _, pop := range []*PoP{popA, popB} {
		if err := c.OpenTunnel(pop); err != nil {
			t.Fatal(err)
		}
		if err := c.StartBGP(pop.Name); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEstablished(pop.Name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	p224, p225 := pfx("184.164.224.0/24"), pfx("184.164.225.0/24")
	if err := c.Announce("amsix", p224); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce("seattle", p225); err != nil {
		t.Fatal(err)
	}

	topo := popA.platform.Topology()
	probe := inet.PrefixForASN(100)
	converged := func() bool {
		// Both client views carry both paths, and each announcement
		// reached the *other* PoP's neighbor through the backbone.
		return len(c.RoutesFor("amsix", probe)) == 2 &&
			len(c.RoutesFor("seattle", probe)) == 2 &&
			topo.Reachable(1000, p224) && topo.Reachable(10000, p224) &&
			topo.Reachable(1000, p225) && topo.Reachable(10000, p225)
	}
	// The baseline is taken at rest: with the whole platform quiesced,
	// not merely the probe's paths present, no route is still on its way.
	waitFor(t, 20*time.Second, "no-fault convergence", func() bool { return p.quiesced() && converged() })

	view := func() string {
		return clientView(c, "amsix") + clientView(c, "seattle") +
			tableView(popA.Router.ExperimentRoutes()) + tableView(popB.Router.ExperimentRoutes())
	}
	baseline := view()

	// recovered is read at rest only (p.quiesced first), where every
	// difference from the baseline is a real one.
	recovered := func() bool {
		if !p.quiesced() {
			return false
		}
		for _, pop := range []*PoP{popA, popB} {
			if c.BGPStatus(pop.Name) != bgp.StateEstablished {
				return false
			}
			for _, n := range pop.Router.Neighbors() {
				if tableStale(n.Table) > 0 {
					return false
				}
				if n.Remote {
					// Remote neighbors mirror another PoP's session; they
					// carry a table but no transport of their own.
					continue
				}
				sess := n.Session()
				if sess == nil || sess.State() != bgp.StateEstablished {
					return false
				}
			}
			if tableStale(pop.Router.ExperimentRoutes()) > 0 {
				return false
			}
		}
		if !converged() {
			return false
		}
		return view() == baseline
	}

	schedule := []struct {
		desc    string
		fault   chaos.Fault
		kills   bool   // expect at least one supervised session to die and reconnect
		trigger func() // post-injection traffic that makes the fault bite
	}{
		{"neighbor reset at amsix", chaos.Fault{Kind: chaos.Reset, Class: "neighbor", PoP: "amsix"}, true, nil},
		{"experiment control reset at seattle", chaos.Fault{Kind: chaos.Reset, Class: "experiment", PoP: "seattle"}, true, nil},
		{"tunnel carrier reset at amsix", chaos.Fault{Kind: chaos.Reset, Class: "tunnel", PoP: "amsix"}, true, nil},
		{"backbone reset", chaos.Fault{Kind: chaos.Reset, Class: "backbone"}, true, nil},
		// Corruption poisons the next reads; an announcement supplies
		// them (sessions are otherwise quiet between keepalives).
		{"corrupted experiment stream at seattle", chaos.Fault{Kind: chaos.Corrupt, Class: "experiment", PoP: "seattle"}, true,
			func() { _ = c.Announce("seattle", p225) }},
		{"backbone link flap at amsix", chaos.Fault{Kind: chaos.LinkFlap, Name: "bb0:amsix", Duration: 50 * time.Millisecond}, false, nil},
		{"whole-PoP partition of seattle", chaos.Fault{Kind: chaos.Partition, PoP: "seattle"}, true, nil},
	}
	// A step that never recovers leaves its state in the log.
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, pop := range []*PoP{popA, popB} {
			t.Logf("%s: client BGP %s", pop.Name, c.BGPStatus(pop.Name))
			for _, n := range pop.Router.Neighbors() {
				st := "nil"
				if sess := n.Session(); sess != nil {
					st = sess.State().String()
				}
				t.Logf("%s/%s: state=%s stale=%d paths=%d", pop.Name, n.Name, st, tableStale(n.Table), n.Table.PathCount())
			}
			t.Logf("%s expRoutes stale=%d view=%q", pop.Name, tableStale(pop.Router.ExperimentRoutes()), tableView(pop.Router.ExperimentRoutes()))
		}
		t.Logf("converged=%v\nbaseline:\n%s\nnow:\n%s", converged(), baseline, view())
	})
	for _, step := range schedule {
		before := reg.Value("bgp_reconnects_total")
		if hit := inj.Inject(step.fault); hit == 0 {
			t.Fatalf("%s: fault matched no targets", step.desc)
		}
		if step.trigger != nil {
			step.trigger()
		}
		if step.kills {
			waitFor(t, 20*time.Second, "reconnect after "+step.desc, func() bool {
				return reg.Value("bgp_reconnects_total") > before
			})
		}
		waitFor(t, 20*time.Second, "reconvergence after "+step.desc, recovered)
	}

	// The control plane is fully live after the soak: a withdrawal and a
	// fresh announcement still propagate end to end.
	if err := c.Withdraw("amsix", p224, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "post-soak withdrawal propagates", func() bool {
		return popA.Router.ExperimentRoutes().Best(p224) == nil
	})
	if err := c.Announce("amsix", p224); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "post-soak announcement propagates", converged)

	// Telemetry carries the evidence: every fault of this run counted,
	// reconnects recorded, and the recovery latency histogram populated.
	if v := reg.Value("chaos_faults_total") - faultsBefore; v < float64(len(schedule)) {
		t.Errorf("chaos_faults_total rose by %v, want >= %d", v, len(schedule))
	}
	if v := reg.Value("bgp_reconnects_total"); v < 4 {
		t.Errorf("bgp_reconnects_total = %v, want >= 4 (neighbor, experiment, tunnel, backbone)", v)
	}
	if v := reg.Value("tunnel_reconnect_attempts_total"); v < 2 {
		t.Errorf("tunnel_reconnect_attempts_total = %v, want >= 2", v)
	}
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "bgp_session_recovery_seconds" && s.Kind == telemetry.KindHistogram && s.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("bgp_session_recovery_seconds histogram is empty")
	}
}
