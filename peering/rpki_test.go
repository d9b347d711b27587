package peering

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/policy"
	"repro/internal/rpki"
	"repro/internal/telemetry"
)

// rpkiTestbed is testbed with a trust-anchor ROA store: every topology
// prefix is signed by its originator and the experiment's allocation is
// split — 184.164.224.0/24 signed for the experiment ASN, .225.0/24
// signed for a foreign AS (so announcing it is RPKI-Invalid), and the
// rest of the /23 unsigned (NotFound).
func rpkiTestbed(t *testing.T, inj *chaos.Injector) (*Platform, *PoP, *Client, *rpki.Store) {
	t.Helper()
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)

	roas := rpki.NewStore()
	for _, asn := range topo.ASNs() {
		for _, prefix := range topo.AS(asn).Originated {
			roas.Add(rpki.ROA{Prefix: prefix, ASN: asn})
		}
	}
	roas.Add(rpki.ROA{Prefix: pfx("184.164.224.0/24"), ASN: expASN})
	roas.Add(rpki.ROA{Prefix: pfx("184.164.225.0/24"), ASN: 64999})

	p := NewPlatform(PlatformConfig{
		ASN: 47065, Topology: topo, Chaos: inj,
		RPKI: roas, RPKIStaleExpiry: 100 * time.Millisecond,
	})
	pop, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pop.ConnectTransit(1000, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := pop.ConnectPeer(10000, 30); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Proposal{
		Name: "exp1", Owner: "alice", Plan: "study ROV",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{expASN},
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("exp1", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "PoP RTR client synced", func() bool { return pop.RPKI.Serial() == roas.Serial() })
	return p, pop, NewClient("exp1", key, expASN), roas
}

func startRPKIClient(t *testing.T, pop *PoP, c *Client) {
	t.Helper()
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

// TestROVRejectsInvalidAnnouncement: the engine drops announcements
// whose (prefix, origin) is Invalid even when the prefix is inside the
// experiment's allocation, while Valid and NotFound ones pass.
func TestROVRejectsInvalidAnnouncement(t *testing.T) {
	p, pop, c, _ := rpkiTestbed(t, nil)
	startRPKIClient(t, pop, c)

	// Valid: signed for the experiment's ASN.
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "valid announcement propagates", func() bool {
		return p.Topology().Reachable(10020, pfx("184.164.224.0/24"))
	})

	// Invalid: inside the allocation but signed for AS64999. The session
	// accepts it; enforcement drops it before it reaches the router.
	if err := c.Announce("amsix", pfx("184.164.225.0/24")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the platform to quiesce", p.quiesced)
	if p.Topology().Reachable(1000, pfx("184.164.225.0/24")) {
		t.Fatal("RPKI-Invalid announcement escaped the platform")
	}
	found := false
	for _, e := range p.Engine.Audit() {
		if e.Prefix == pfx("184.164.225.0/24") && e.Action == policy.ActionReject {
			for _, r := range e.Reasons {
				if strings.Contains(r, "RPKI invalid") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no RPKI-invalid audit entry recorded")
	}
}

// TestValidationStateCommunitiesStamped: routes exported to experiments
// carry the platform's validation-state large community, and a ROA
// change converging over the live RTR session re-exports the affected
// routes with the flipped state — no session restart.
func TestValidationStateCommunitiesStamped(t *testing.T) {
	_, pop, c, roas := rpkiTestbed(t, nil)
	startRPKIClient(t, pop, c)

	probe := inet.PrefixForASN(100) // tier-1 prefix, signed in the testbed
	waitFor(t, 5*time.Second, "probe routes arrive", func() bool {
		return len(c.RoutesFor("amsix", probe)) > 0
	})
	stateOf := func() (rpki.State, bool) {
		for _, rt := range c.RoutesFor("amsix", probe) {
			for _, lc := range rt.Attrs.LargeCommunities {
				for _, st := range []rpki.State{rpki.Valid, rpki.Invalid, rpki.NotFound} {
					if lc == core.ValidationStateCommunity(47065, st) {
						return st, true
					}
				}
			}
			return 0, false
		}
		return 0, false
	}
	waitFor(t, 5*time.Second, "Valid stamp on signed route", func() bool {
		st, ok := stateOf()
		return ok && st == rpki.Valid
	})

	serialBefore := pop.RPKI.Serial()
	// Revoke the origin's ROA and sign the space for someone else: the
	// held route flips Valid -> Invalid purely over the RTR session.
	roas.Add(rpki.ROA{Prefix: probe, ASN: 64111})
	roas.Revoke(rpki.ROA{Prefix: probe, ASN: 100})
	waitFor(t, 5*time.Second, "stamp flips to Invalid over live RTR", func() bool {
		st, ok := stateOf()
		return ok && st == rpki.Invalid
	})
	if pop.RPKI.Serial() <= serialBefore {
		t.Fatal("client serial did not advance with the store")
	}

	// And back.
	roas.Add(rpki.ROA{Prefix: probe, ASN: 100})
	waitFor(t, 5*time.Second, "stamp flips back to Valid", func() bool {
		st, ok := stateOf()
		return ok && st == rpki.Valid
	})
}

// TestRTROutageFailsClosed is the chaos soak: flapping the RTR link
// kills the cache session and blocks redials. After the freshness
// window the PoP's cache is stale but keeps validating — Invalid never
// passes, NotFound-only coverage still does — and when the link comes
// back the client reconverges, picking up ROAs added during the outage.
func TestRTROutageFailsClosed(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 11, Logf: t.Logf})
	_, pop, _, roas := rpkiTestbed(t, inj)

	// Stale trips are observed on the counter operators scrape.
	trips := telemetry.Default().Counter("rpki_cache_stale_trips_total")
	tripsBefore := trips.Value()
	outage := 2 * time.Second
	if n := inj.Inject(chaos.Fault{Kind: chaos.LinkFlap, Name: "rtr-amsix", Duration: outage}); n == 0 {
		t.Fatal("RTR link not registered with the injector")
	}
	waitFor(t, 20*time.Second, "stale trip after freshness window", func() bool {
		return trips.Value() > tripsBefore
	})

	// Fail closed on stale data.
	if st := pop.RPKI.Validate(pfx("184.164.225.0/24"), expASN); st != rpki.Invalid {
		t.Fatalf("stale cache must keep rejecting Invalid: %v", st)
	}
	if st := pop.RPKI.Validate(pfx("203.0.113.0/24"), expASN); st != rpki.NotFound {
		t.Fatalf("stale cache must keep passing NotFound: %v", st)
	}
	if st := pop.RPKI.Validate(pfx("184.164.224.0/24"), expASN); st != rpki.Valid {
		t.Fatalf("stale cache retains Valid: %v", st)
	}

	// A ROA signed during the outage must arrive after reconvergence.
	roas.Add(rpki.ROA{Prefix: pfx("198.51.100.0/24"), ASN: 64888})
	waitFor(t, 20*time.Second, "reconvergence after the link returns", func() bool {
		return pop.RPKI.Validate(pfx("198.51.100.0/24"), 64888) == rpki.Valid
	})
	if pop.RPKI.Serial() != roas.Serial() {
		t.Fatalf("client serial %d != store serial %d after outage", pop.RPKI.Serial(), roas.Serial())
	}
}
