package collector

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/pipe"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// speakerFor wires a collector against a scripted announcing session.
func speakerFor(t *testing.T, c func(conn *pipe.Conn)) *Collector {
	t.Helper()
	ca, cb := pipe.New()
	col := New("rv.test", 6447, 47065, ip("128.223.51.102"), ca)
	t.Cleanup(col.Close)
	c(cb)
	return col
}

func startAnnouncer(t *testing.T, conn *pipe.Conn) *bgp.Session {
	t.Helper()
	est := make(chan struct{})
	s := bgp.NewSession(conn, bgp.Config{
		LocalASN: 47065, RemoteASN: 6447, LocalID: ip("198.51.100.1"),
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSend,
			bgp.IPv6Unicast: bgp.AddPathSend,
		},
		OnEstablished: func() { close(est) },
	})
	go s.Run()
	t.Cleanup(func() { s.Close() })
	select {
	case <-est:
	case <-time.After(5 * time.Second):
		t.Fatal("announcer did not establish")
	}
	return s
}

func announce(t *testing.T, s *bgp.Session, prefix string, id uint32, asns []uint32) {
	t.Helper()
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop:     ip("198.51.100.1"),
		Communities: []bgp.Community{bgp.NewCommunity(47065, 100)},
	}
	if err := s.Send(&bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: pfx(prefix), ID: bgp.PathID(id)}}}); err != nil {
		t.Fatal(err)
	}
}

func waitEvents(t *testing.T, col *Collector, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(col.Events(time.Time{}, time.Time{})) < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if len(col.Events(time.Time{}, time.Time{})) < n {
		t.Fatalf("events = %d, want >= %d", len(col.Events(time.Time{}, time.Time{})), n)
	}
}

func TestCollectorRecordsAnnouncesAndWithdraws(t *testing.T) {
	var sess *bgp.Session
	col := speakerFor(t, func(conn *pipe.Conn) { sess = startAnnouncer(t, conn) })

	announce(t, sess, "192.168.0.0/24", 1, []uint32{65001, 65002})
	announce(t, sess, "192.168.0.0/24", 2, []uint32{65003})
	waitEvents(t, col, 2)
	if got := col.table.PathCount(); got != 2 {
		t.Fatalf("RIB paths = %d (ADD-PATH reception)", got)
	}

	if err := sess.Send(&bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: pfx("192.168.0.0/24"), ID: 1}}}); err != nil {
		t.Fatal(err)
	}
	waitEvents(t, col, 3)
	if got := col.table.PathCount(); got != 1 {
		t.Fatalf("RIB paths after withdraw = %d", got)
	}

	hist := col.History(pfx("192.168.0.0/24"))
	if len(hist) != 3 || hist[0].Kind != KindAnnounce || hist[2].Kind != KindWithdraw {
		t.Fatalf("history kinds: %+v", hist)
	}
	if hist[0].ASPath[0] != 65001 || len(hist[0].Communities) != 1 {
		t.Errorf("recorded attrs: %+v", hist[0])
	}

	snap := col.Snapshot()
	if len(snap) != 1 || snap[0].PathID != 2 {
		t.Errorf("snapshot: %+v", snap)
	}
}

func TestCollectorTimeWindow(t *testing.T) {
	var sess *bgp.Session
	col := speakerFor(t, func(conn *pipe.Conn) { sess = startAnnouncer(t, conn) })
	base := time.Unix(1700000000, 0)
	now := base
	col.Now = func() time.Time { return now }

	announce(t, sess, "10.0.0.0/24", 0, []uint32{65001})
	waitEvents(t, col, 1)
	now = base.Add(time.Hour)
	announce(t, sess, "10.0.1.0/24", 0, []uint32{65001})
	waitEvents(t, col, 2)

	early := col.Events(time.Time{}, base.Add(time.Minute))
	if len(early) != 1 || early[0].Prefix != pfx("10.0.0.0/24") {
		t.Errorf("early window: %+v", early)
	}
	late := col.Events(base.Add(time.Minute), time.Time{})
	if len(late) != 1 || late[0].Prefix != pfx("10.0.1.0/24") {
		t.Errorf("late window: %+v", late)
	}
	if all := col.Events(time.Time{}, time.Time{}); len(all) != 2 {
		t.Errorf("unbounded window: %d", len(all))
	}
}

func TestDumpRoundTrip(t *testing.T) {
	events := []Event{
		{Time: time.Unix(1700000000, 123), Kind: KindAnnounce, Prefix: pfx("192.168.0.0/24"),
			PathID: 7, ASPath: []uint32{47065, 61574}, NextHop: ip("127.65.0.1"),
			Communities: []bgp.Community{bgp.NewCommunity(47065, 1)}},
		{Time: time.Unix(1700000060, 0), Kind: KindWithdraw, Prefix: pfx("192.168.0.0/24"), PathID: 7},
		{Time: time.Unix(1700000120, 0), Kind: KindAnnounce, Prefix: pfx("2001:db8::/32"),
			PathID: 1, ASPath: []uint32{4200000001}, NextHop: ip("2001:db8::1")},
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("records = %d", len(got))
	}
	for i := range events {
		if !events[i].Time.Equal(got[i].Time) {
			t.Errorf("record %d time %v vs %v", i, got[i].Time, events[i].Time)
		}
		g, w := got[i], events[i]
		g.Time, w.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestDumpRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvents(&buf, []Event{{Time: time.Unix(0, 0), Kind: KindAnnounce,
		Prefix: pfx("10.0.0.0/8"), NextHop: ip("1.1.1.1"), ASPath: []uint32{1}}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the magic.
	bad := append([]byte(nil), data...)
	bad[0] = 0
	if _, err := ReadEvents(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt magic accepted")
	}
	// Truncate mid-record.
	if _, err := ReadEvents(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestDumpPropertyRoundTrip(t *testing.T) {
	fn := func(kind bool, ns int64, id uint32, addr [4]byte, bits uint8, nh [4]byte, path []uint32, comms []uint32) bool {
		if len(path) > 100 {
			path = path[:100]
		}
		if len(comms) > 100 {
			comms = comms[:100]
		}
		e := Event{
			Time: time.Unix(0, ns), Kind: KindAnnounce,
			Prefix: netip.PrefixFrom(netip.AddrFrom4(addr), int(bits%33)),
			PathID: id, NextHop: netip.AddrFrom4(nh),
		}
		if kind {
			e.Kind = KindWithdraw
		}
		e.ASPath = append([]uint32(nil), path...)
		for _, c := range comms {
			e.Communities = append(e.Communities, bgp.Community(c))
		}
		var buf bytes.Buffer
		if err := WriteEvents(&buf, []Event{e}); err != nil {
			return false
		}
		got, err := ReadEvents(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		if !g.Time.Equal(e.Time) {
			return false
		}
		g.Time, e.Time = time.Time{}, time.Time{}
		return reflect.DeepEqual(g, e)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzReadEvents hammers the dump parser with arbitrary bytes; as a
// plain test it replays the seed corpus.
func FuzzReadEvents(f *testing.F) {
	var buf bytes.Buffer
	WriteEvents(&buf, []Event{
		{Time: time.Unix(1700000000, 0), Kind: KindAnnounce, Prefix: pfx("10.0.0.0/8"),
			PathID: 1, ASPath: []uint32{65001}, NextHop: ip("1.1.1.1"),
			Communities: []bgp.Community{bgp.NewCommunity(47065, 1)}},
		{Time: time.Unix(1700000001, 0), Kind: KindWithdraw, Prefix: pfx("2001:db8::/32")},
	})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x52})
	seed := buf.Bytes()
	f.Add(seed[:len(seed)-5]) // truncated mid-record
	f.Add([]byte{0x50})       // half a magic
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0xFF // one corrupted byte mid-stream
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded events must re-encode and re-decode identically.
		var out bytes.Buffer
		if err := WriteEvents(&out, events); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadEvents(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed record count %d -> %d", len(events), len(again))
		}
	})
}
