package peering

import (
	"strings"
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
	waitFor(t, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) == 2 })

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
	waitFor(t, "frame forwarded", func() bool { return pop.Router.Forwarded.Load() >= 1 })

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

// TestStationSeesQuickstartScenario checks the platform monitoring
// station's view after the same loop: peers up, the experiment's
// announcement visible, and stats reports delivered on request.
func TestStationSeesQuickstartScenario(t *testing.T) {
	p, pop, c := testbed(t)
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
	waitFor(t, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) == 2 })
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	// The router processes the announcement asynchronously; wait until
	// the station has seen its RouteMonitoring event.
	st := p.Station()
	waitFor(t, "experiment announce observed", func() bool {
		e, ok := stationPeer(st, "amsix", "exp:exp1")
		return ok && e.Announces > 0
	})
	pop.Router.EmitStatsReport()
	if !p.WaitMonitorDrained(5 * time.Second) {
		t.Fatalf("station lagging: processed %d of %d accepted events",
			st.Processed(), p.Monitor().Accepted())
	}

	exp, ok := stationPeer(st, "amsix", "exp:exp1")
	if !ok {
		t.Fatal("station never saw the experiment peer")
	}
	if !exp.Up {
		t.Errorf("experiment peer status = up:%v", exp.Up)
	}
	transit, ok := stationPeer(st, "amsix", "as1000")
	if !ok {
		t.Fatal("station never saw the transit neighbor")
	}
	if !transit.Up || transit.Announces == 0 {
		t.Errorf("transit status = up:%v announces:%d", transit.Up, transit.Announces)
	}
	if len(transit.Stats) == 0 {
		t.Error("stats report carried no TLVs for the transit neighbor")
	}
	if p.Monitor().Dropped() != 0 {
		t.Errorf("platform queue dropped %d events in a small scenario", p.Monitor().Dropped())
	}
	report := st.Report()
	for _, want := range []string{"as1000", "as10000", "exp:exp1"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %s:\n%s", want, report)
		}
	}
}

// stationPeer returns the station's status of one monitored session.
func stationPeer(st *telemetry.Station, pop, peer string) (telemetry.PeerStatus, bool) {
	for _, p := range st.Peers() {
		if p.PoP == pop && p.Peer == peer {
			return p, true
		}
	}
	return telemetry.PeerStatus{}, false
}
