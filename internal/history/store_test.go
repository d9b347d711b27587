package history

import (
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// openTest opens a store with the background maintenance loop disabled
// (tests drive Maintain with a controlled clock) and its own registry.
func openTest(t *testing.T, dir string, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Config{
		Dir:                 dir,
		MaintenanceInterval: -1,
		Registry:            telemetry.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func routeEvent(pop string, at time.Time, prefix string, withdraw bool) telemetry.Event {
	return telemetry.Event{
		Kind: telemetry.EventRouteMonitoring, Time: at, PoP: pop,
		Peer: "exp:test", Prefix: netip.MustParsePrefix(prefix),
		NextHop: netip.MustParseAddr("100.65.0.2"),
		ASPath:  []uint32{61574}, Withdraw: withdraw,
	}
}

func appendAll(s *Store, events ...telemetry.Event) {
	for _, e := range events {
		s.Append(e)
	}
}

func TestDedupAcrossVantages(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	base := time.Unix(1000, 0)
	// The same announcement observed at two PoPs within the window, then
	// a third observation from a PoP it already has — the flap case.
	appendAll(s,
		routeEvent("amsix", base, "184.164.224.0/24", false),
		routeEvent("seattle", base.Add(100*time.Millisecond), "184.164.224.0/24", false),
	)
	st := s.Stats()
	if st.Stored != 1 || st.Deduped != 1 {
		t.Fatalf("stored=%d deduped=%d, want 1/1", st.Stored, st.Deduped)
	}
	events, err := s.Between(netip.MustParsePrefix("184.164.224.0/24"), base.Add(-time.Second), base.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1 merged record", len(events))
	}
	if got := events[0].VantageNames; !reflect.DeepEqual(got, []string{"amsix", "seattle"}) {
		t.Fatalf("vantages = %v, want [amsix seattle]", got)
	}
	if events[0].Dups != 2 {
		t.Fatalf("dups = %d, want 2", events[0].Dups)
	}

	// Same vantage repeating identical content: a distinct flap leg,
	// stored separately even inside the window.
	appendAll(s, routeEvent("amsix", base.Add(200*time.Millisecond), "184.164.224.0/24", false))
	if st := s.Stats(); st.Stored != 2 {
		t.Fatalf("stored=%d after same-vantage repeat, want 2", st.Stored)
	}
}

func TestDedupWindowExpiry(t *testing.T) {
	s := openTest(t, t.TempDir(), func(c *Config) { c.DedupWindow = time.Second })
	base := time.Unix(1000, 0)
	appendAll(s,
		routeEvent("amsix", base, "184.164.224.0/24", false),
		routeEvent("seattle", base.Add(5*time.Second), "184.164.224.0/24", false),
	)
	if st := s.Stats(); st.Stored != 2 || st.Deduped != 0 {
		t.Fatalf("stored=%d deduped=%d, want 2/0 (outside window)", st.Stored, st.Deduped)
	}
}

func TestSkipsNonRouteEvents(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	appendAll(s,
		telemetry.Event{Kind: telemetry.EventPeerUp, Time: time.Unix(1000, 0), PoP: "amsix", Peer: "transit-1000"},
		routeEvent("amsix", time.Unix(1001, 0), "184.164.224.0/24", false),
		telemetry.Event{Kind: telemetry.EventPeerDown, Time: time.Unix(1002, 0), PoP: "amsix", Peer: "transit-1000", Reason: "hold timer expired"},
	)
	if st := s.Stats(); st.Stored != 1 || st.Skipped != 2 {
		t.Fatalf("stored=%d skipped=%d, want 1/2", st.Stored, st.Skipped)
	}
}

func TestRotationBySizeAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(c *Config) { c.MaxSegmentBytes = 256 })
	base := time.Unix(1000, 0)
	for i := 0; i < 40; i++ {
		appendAll(s, routeEvent("amsix", base.Add(time.Duration(i)*time.Second),
			"10.0.0.0/24", i%2 == 1))
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("segments = %d, want rotation to have produced several", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.vhs"))
	if len(files) < 3 {
		t.Fatalf("on-disk segments = %d, want >= 3", len(files))
	}

	// Reopen from disk only: the full timeline must be intact.
	re := openTest(t, dir, nil)
	if st := re.Stats(); st.Records != 40 {
		t.Fatalf("reopened Records = %d, want 40 (Stored = %d is lifetime-only)", st.Records, st.Stored)
	}
	events, err := re.Between(netip.MustParsePrefix("10.0.0.0/24"), base, base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 40 {
		t.Fatalf("reopened timeline has %d events, want 40", len(events))
	}
	for i, ev := range events {
		if got := ev.Time; !got.Equal(base.Add(time.Duration(i) * time.Second)) {
			t.Fatalf("event %d at %v, want %v (time order lost)", i, got, base.Add(time.Duration(i)*time.Second))
		}
		if ev.Withdraw != (i%2 == 1) {
			t.Fatalf("event %d withdraw = %v, want %v", i, ev.Withdraw, i%2 == 1)
		}
	}
	// 40 events ended on a withdraw: no live state.
	state, err := re.StateAt(netip.MustParsePrefix("10.0.0.0/24"), base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 0 {
		t.Fatalf("state = %v, want empty after final withdraw", state)
	}
	// Time travel to just after an even (announce) event: one live route.
	state, err = re.StateAt(netip.MustParsePrefix("10.0.0.0/24"), base.Add(38*time.Second+time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 {
		t.Fatalf("state = %v, want one live route mid-timeline", state)
	}
}

func TestSealByAge(t *testing.T) {
	s := openTest(t, t.TempDir(), func(c *Config) { c.MaxSegmentAge = time.Minute })
	base := time.Now().Add(-2 * time.Minute)
	appendAll(s, routeEvent("amsix", base, "10.0.0.0/24", false))
	if st := s.Stats(); st.SealedBytes != 0 {
		t.Fatal("segment sealed before maintenance ran")
	}
	s.Maintain(time.Now())
	if st := s.Stats(); st.SealedBytes == 0 {
		t.Fatal("age-based seal did not happen")
	}
}

func TestRetention(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(c *Config) {
		c.MaxSegmentBytes = 1 // every record seals its own segment
		c.Retention = time.Hour
	})
	old := time.Now().Add(-3 * time.Hour)
	fresh := time.Now().Add(-time.Minute)
	appendAll(s,
		routeEvent("amsix", old, "10.0.0.0/24", false),
		routeEvent("amsix", old.Add(time.Second), "10.0.1.0/24", false),
		routeEvent("amsix", fresh, "10.0.2.0/24", false),
	)
	s.Maintain(time.Now())
	st := s.Stats()
	if st.RetiredSegments < 2 {
		t.Fatalf("retired = %d, want the two old segments gone", st.RetiredSegments)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.vhs"))
	if len(files) != st.Segments && len(files) != st.Segments-1 { // active may be unsealed
		t.Fatalf("on-disk files %d vs live segments %d", len(files), st.Segments)
	}
	// In-window queries still work after retirement.
	state, err := s.StateAt(netip.MustParsePrefix("10.0.2.0/24"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 {
		t.Fatalf("in-window state lost after retention: %v", state)
	}
	// The retired prefix is gone.
	if evs, err := s.Between(netip.MustParsePrefix("10.0.0.0/24"), old.Add(-time.Hour), time.Now()); err != nil || len(evs) != 0 {
		t.Fatalf("retired segment still answers: %v, %v", evs, err)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(c *Config) {
		c.CompactAfter = time.Minute
		c.DedupWindow = time.Millisecond // no merging in this test
	})
	base := time.Now().Add(-time.Hour)
	// Churn: announce/withdraw flaps with a final announce, plus one
	// stable prefix that must be untouched.
	var evs []telemetry.Event
	for i := 0; i < 7; i++ {
		evs = append(evs, routeEvent("amsix", base.Add(time.Duration(2*i)*time.Second), "10.1.0.0/24", i%2 == 1))
	}
	evs = append(evs, routeEvent("amsix", base, "10.2.0.0/24", false))
	appendAll(s, evs...)
	s.mu.Lock()
	s.sealLocked()
	s.mu.Unlock()
	s.Maintain(time.Now())
	st := s.Stats()
	if st.CompactedEvents != 5 {
		t.Fatalf("compacted = %d, want 5 (7 churn events -> first+last)", st.CompactedEvents)
	}
	// Boundary semantics: state at/after segment end is exact.
	state, err := s.StateAt(netip.MustParsePrefix("10.1.0.0/24"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 {
		t.Fatalf("post-compaction end state = %v, want the final announce", state)
	}
	events, err := s.Between(netip.MustParsePrefix("10.1.0.0/24"), base.Add(-time.Minute), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("compacted timeline has %d events, want 2 boundary records", len(events))
	}
	// Observation accounting survives: the dropped legs fold into the
	// surviving boundary's dup counter.
	total := uint32(0)
	for _, ev := range events {
		total += ev.Dups
	}
	if total != 7 {
		t.Fatalf("dup total = %d, want 7 observations preserved", total)
	}
	// The compacted file on disk is sealed, CRC-valid, and reopenable.
	re := openTest(t, dir, nil)
	events, err = re.Between(netip.MustParsePrefix("10.1.0.0/24"), base.Add(-time.Minute), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("reopened compacted timeline has %d events, want 2", len(events))
	}
	if evs, err := re.Between(netip.MustParsePrefix("10.2.0.0/24"), base.Add(-time.Minute), time.Now()); err != nil || len(evs) != 1 {
		t.Fatalf("stable prefix disturbed by compaction: %v, %v", evs, err)
	}
}

func TestDiffPoPs(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	base := time.Unix(1000, 0)
	victim := routeEvent("amsix", base, "184.164.224.0/24", false)
	victimAtB := victim
	victimAtB.PoP = "seattle"
	hijack := routeEvent("seattle", base.Add(10*time.Second), "184.164.224.0/25", false)
	hijack.Peer = "exp:rogue"
	hijack.ASPath = []uint32{666}
	appendAll(s, victim, victimAtB, hijack)

	// Mid-hijack: the /25 diverges, visible only at seattle; the /24,
	// held at both PoPs (merged record), does not appear.
	diffs, err := s.DiffPoPs("amsix", "seattle", base.Add(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 {
		t.Fatalf("diffs = %+v, want exactly the /25", diffs)
	}
	d := diffs[0]
	if d.Prefix != netip.MustParsePrefix("184.164.224.0/25") || d.OnlyAt != "seattle" || d.Origin != 666 {
		t.Fatalf("divergence = %+v, want /25 only at seattle from origin 666", d)
	}
	// Before the hijack: no divergence.
	diffs, err = s.DiffPoPs("amsix", "seattle", base.Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("pre-hijack diffs = %+v, want none", diffs)
	}
}

func TestPerVantageWithdraw(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	base := time.Unix(1000, 0)
	a := routeEvent("amsix", base, "184.164.224.0/24", false)
	b := routeEvent("seattle", base.Add(time.Millisecond), "184.164.224.0/24", false)
	// Withdraw observed only at amsix: seattle's copy survives.
	w := routeEvent("amsix", base.Add(10*time.Second), "184.164.224.0/24", true)
	appendAll(s, a, b, w)
	state, err := s.StateAt(netip.MustParsePrefix("184.164.224.0/24"), base.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 || !reflect.DeepEqual(state[0].Vantages, []string{"seattle"}) {
		t.Fatalf("state = %+v, want the route alive at seattle only", state)
	}
}

func TestOpenRejectsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	appendAll(s, routeEvent("amsix", time.Unix(1000, 0), "10.0.0.0/24", false))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.vhs"))
	if len(files) == 0 {
		t.Fatal("no sealed segment on disk")
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, MaintenanceInterval: -1, Registry: telemetry.NewRegistry()}); err == nil {
		t.Fatal("Open accepted a corrupt segment (must fail closed)")
	}
}

func TestMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), func(c *Config) { c.Registry = reg })
	base := time.Unix(1000, 0)
	appendAll(s,
		routeEvent("amsix", base, "184.164.224.0/24", false),
		routeEvent("seattle", base.Add(time.Millisecond), "184.164.224.0/24", false),
	)
	if _, err := s.StateAt(netip.MustParsePrefix("184.164.224.0/24"), base.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"history_stored_total": 1,
		"history_dedup_total":  1,
	}
	for name, want := range checks {
		if got := reg.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Value("history_queries_total"); got != 1 {
		t.Errorf("history_queries_total = %v, want 1", got)
	}
}
