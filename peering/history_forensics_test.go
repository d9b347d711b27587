package peering

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/telemetry"
)

// forensicsTestbed builds two hand-wired PoPs (no synthetic Internet,
// no neighbors — the only monitored routes are the experiment's) with a
// history store teed into the monitoring feed.
func forensicsTestbed(t *testing.T, dir string) (*Platform, *history.Store, *Client) {
	t.Helper()
	store, err := history.Open(history.Config{Dir: dir, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(PlatformConfig{ASN: 47065, History: store})
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
	if err := p.Submit(Proposal{
		Name: "whitehat", Owner: "sec-team", Plan: "hijack forensics",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{61574},
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("whitehat", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("whitehat", key, 61574)
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
	return p, store, c
}

// TestHijackForensicsFromDiskAlone replays the paper's security-study
// scenario — victim announce at two PoPs, a more-specific hijack at one,
// containment — then closes the platform and reconstructs the whole
// incident from the on-disk segment log alone. The replayed state at
// each checkpoint must be identical to what the live store observed,
// and DiffPoPs must localize the rogue origin to the poisoned PoP.
func TestHijackForensicsFromDiskAlone(t *testing.T) {
	dir := t.TempDir()
	p, store, c := forensicsTestbed(t, dir)
	victim := pfx("184.164.224.0/24")
	specific := pfx("184.164.224.0/25")

	// The routers process experiment updates asynchronously, so each
	// phase waits until the store's replayed view reflects it before the
	// checkpoint clock is read.
	stateLen := func(prefix netip.Prefix) int {
		state, err := store.StateAt(prefix, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return len(state)
	}

	// Phase 1: the victim /24 announced at BOTH PoPs. The content-hash
	// deduper must collapse the two observations into one record with a
	// two-bit vantage map.
	if err := c.Announce("amsix", victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "amsix announce in history", func() bool { return stateLen(victim) == 1 })
	if err := c.Announce("seattle", victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "cross-PoP dedup merge", func() bool { return store.Stats().Deduped >= 1 })
	tBaseline := time.Now()

	// Phase 2: the hijack — the more-specific /25 from seattle only.
	if err := c.Announce("seattle", specific); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "hijack in history", func() bool { return stateLen(specific) == 1 })
	tHijack := time.Now()

	// Phase 3: containment — the /25 withdrawn.
	if err := c.Withdraw("seattle", specific, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "containment in history", func() bool { return stateLen(specific) == 0 })
	tContained := time.Now()

	// Live observations at each checkpoint, straight from the running
	// store. These are the ground truth the disk replay must match.
	type checkpoint struct {
		name   string
		at     time.Time
		prefix netip.Prefix
		live   []history.RouteState
	}
	var checkpoints []checkpoint
	for _, cp := range []struct {
		name   string
		at     time.Time
		prefix netip.Prefix
	}{
		{"baseline /24", tBaseline, victim},
		{"baseline /25", tBaseline, specific},
		{"mid-hijack /24", tHijack, victim},
		{"mid-hijack /25", tHijack, specific},
		{"contained /24", tContained, victim},
		{"contained /25", tContained, specific},
	} {
		live, err := store.StateAt(cp.prefix, cp.at)
		if err != nil {
			t.Fatal(err)
		}
		checkpoints = append(checkpoints, checkpoint{cp.name, cp.at, cp.prefix, live})
	}
	liveDiff, err := store.DiffPoPs("amsix", "seattle", tHijack)
	if err != nil {
		t.Fatal(err)
	}

	// The live run itself must show the expected shape before we trust
	// it as ground truth: victim held at both PoPs via one deduped
	// record, the /25 alive mid-hijack, gone after containment.
	if st := store.Stats(); st.Deduped == 0 {
		t.Fatalf("cross-PoP dedup never fired: %+v", st)
	}
	if got := checkpoints[0].live; len(got) != 1 || !reflect.DeepEqual(got[0].Vantages, []string{"amsix", "seattle"}) {
		t.Fatalf("baseline /24 state = %+v, want one route held at both PoPs", got)
	}
	if got := checkpoints[3].live; len(got) != 1 || !reflect.DeepEqual(got[0].Vantages, []string{"seattle"}) {
		t.Fatalf("mid-hijack /25 state = %+v, want the hijack at seattle only", got)
	}
	if got := checkpoints[5].live; len(got) != 0 {
		t.Fatalf("contained /25 state = %+v, want empty after withdraw", got)
	}

	// Shut the platform down: the history store seals its active segment
	// on the way out, leaving the incident entirely on disk.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the directory alone and replay.
	re, err := history.Open(history.Config{Dir: dir, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	for _, cp := range checkpoints {
		got, err := re.StateAt(cp.prefix, cp.at)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cp.live) {
			t.Errorf("%s: disk replay diverges from live observation:\n got %+v\nwant %+v", cp.name, got, cp.live)
		}
	}

	// The /25's full timeline: announce then withdraw, both seattle-only.
	events, err := re.Between(specific, time.Time{}, tContained)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Withdraw || !events[1].Withdraw {
		t.Fatalf("hijack timeline = %+v, want [announce withdraw]", events)
	}
	for _, ev := range events {
		if !reflect.DeepEqual(ev.VantageNames, []string{"seattle"}) {
			t.Errorf("hijack event vantages = %v, want [seattle]", ev.VantageNames)
		}
	}
	// The victim's announce is one record carrying both vantages and two
	// observations.
	events, err = re.Between(victim, time.Time{}, tContained)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Dups != 2 || !reflect.DeepEqual(events[0].VantageNames, []string{"amsix", "seattle"}) {
		t.Fatalf("victim timeline = %+v, want one deduped record seen from both PoPs", events)
	}

	// Forensics verdict: mid-hijack the PoPs diverge on exactly the /25,
	// with the rogue origin visible only at the poisoned PoP — matching
	// what the live store reported.
	diff, err := re.DiffPoPs("amsix", "seattle", tHijack)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diff, liveDiff) {
		t.Errorf("disk DiffPoPs = %+v, live = %+v", diff, liveDiff)
	}
	if len(diff) != 1 || diff[0].Prefix != specific || diff[0].OnlyAt != "seattle" || diff[0].Origin != 61574 {
		t.Fatalf("divergence = %+v, want the /25 only at seattle from origin 61574", diff)
	}
	// Before and after the incident the PoPs agree.
	for _, at := range []time.Time{tBaseline, tContained} {
		diff, err := re.DiffPoPs("amsix", "seattle", at)
		if err != nil {
			t.Fatal(err)
		}
		if len(diff) != 0 {
			t.Fatalf("DiffPoPs at %v = %+v, want none outside the hijack window", at, diff)
		}
	}
}
