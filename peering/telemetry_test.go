package peering

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/telemetry"
)

// TestMetricsFromAllSubsystems runs the quickstart loop — tunnel, BGP,
// announce, per-packet egress — and checks that one registry snapshot
// carries live counters from every instrumented layer: the BGP engine,
// the vBGP core, the policy engine, the RIB, and the BPF VM.
func TestMetricsFromAllSubsystems(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	if err := c.StartBGP("amsix"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) == 2 })

	// The policy engine vets this announcement; exporting it rewrites
	// next hops and pushes RIB churn.
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	// A data-plane probe crosses the anti-spoofing BPF filter and the
	// per-packet table selection.
	pkt := &ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: addr("184.164.224.1"), Dst: probe.Addr().Next(), Payload: []byte("probe")}
	if err := c.SendIP("amsix", 1, pkt); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "frame forwarded", func() bool { return pop.Router.Forwarded.Load() >= 1 })

	live := map[string]bool{}
	for _, s := range telemetry.Default().Snapshot() {
		if s.Value > 0 || s.Count > 0 {
			for _, prefix := range []string{"bgp_", "core_", "policy_", "rib_", "bpf_"} {
				if strings.HasPrefix(s.Name, prefix) {
					live[prefix] = true
				}
			}
		}
	}
	for _, prefix := range []string{"bgp_", "core_", "policy_", "rib_", "bpf_"} {
		if !live[prefix] {
			t.Errorf("no live %s* metric in the snapshot", prefix)
		}
	}
}

// TestMonitorFeedSeesQuickstartScenario checks the platform's
// monitoring feed after the same loop: the experiment's session comes
// up and its announcement is observed, WaitMonitorDrained returns once
// the sink has seen every accepted event, and nothing is dropped.
func TestMonitorFeedSeesQuickstartScenario(t *testing.T) {
	p, pop, c := testbed(t)
	var mu sync.Mutex
	var expUp, expAnnounce bool
	p.SetEventSink(func(e telemetry.Event) {
		if e.PoP != "amsix" || e.Peer != "exp:exp1" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case e.Kind == telemetry.EventPeerUp:
			expUp = true
		case e.Kind == telemetry.EventRouteMonitoring && !e.Withdraw && e.Prefix == pfx("184.164.224.0/24"):
			expAnnounce = true
		}
	})
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	if err := c.StartBGP("amsix"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	// The router processes the announcement asynchronously.
	waitFor(t, 5*time.Second, "experiment announce observed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return expAnnounce
	})
	if !p.WaitMonitorDrained(5 * time.Second) {
		t.Fatalf("monitor lagging: processed %d of %d accepted events",
			p.monitored.Load(), p.monitor.Accepted())
	}
	mu.Lock()
	defer mu.Unlock()
	if !expUp {
		t.Error("the experiment session's peer-up never reached the sink")
	}
	if p.monitor.Dropped() != 0 {
		t.Errorf("platform queue dropped %d events in a small scenario", p.monitor.Dropped())
	}
}
