package bgp

import (
	"sync"
	"testing"
	"time"

	"repro/internal/pipe"
)

// startPair wires two sessions over a buffered pipe and waits for both to
// establish.
func startPair(t *testing.T, a, b Config) (*Session, *Session) {
	t.Helper()
	ca, cb := pipe.New()
	var wg sync.WaitGroup
	wg.Add(2)
	wrap := func(cfg *Config) {
		prev := cfg.OnEstablished
		cfg.OnEstablished = func() {
			wg.Done()
			if prev != nil {
				prev()
			}
		}
	}
	wrap(&a)
	wrap(&b)
	sa, sb := NewSession(ca, a), NewSession(cb, b)
	go sa.Run()
	go sb.Run()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("sessions did not establish: a=%s b=%s", sa.State(), sb.State())
	}
	t.Cleanup(func() { sa.Close(); sb.Close() })
	return sa, sb
}

func TestSessionEstablish(t *testing.T) {
	sa, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2")},
	)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("states: %s %s", sa.State(), sb.State())
	}
	if sa.RemoteASN() != 65002 || sb.RemoteASN() != 65001 {
		t.Errorf("remote ASNs: %d %d", sa.RemoteASN(), sb.RemoteASN())
	}
	if sa.RemoteID() != ip("10.0.0.2") {
		t.Errorf("remote ID: %s", sa.RemoteID())
	}
}

func TestSessionFourOctetASN(t *testing.T) {
	sa, _ := startPair(t,
		Config{LocalASN: 4200000001, RemoteASN: 4200000002, LocalID: ip("10.0.0.1")},
		Config{LocalASN: 4200000002, RemoteASN: 4200000001, LocalID: ip("10.0.0.2")},
	)
	if sa.RemoteASN() != 4200000002 {
		t.Errorf("4-octet remote ASN = %d", sa.RemoteASN())
	}
}

func TestSessionUpdateExchange(t *testing.T) {
	recv := make(chan *Update, 1)
	_, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
			OnUpdate: func(u *Update) { recv <- keep(u) }},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2")},
	)
	u := &Update{
		Attrs: &PathAttrs{
			Origin: OriginIGP, HasOrigin: true,
			ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65002}}},
			NextHop: ip("10.0.0.2"),
		},
		NLRI: []NLRI{{Prefix: pfx("203.0.113.0/24")}},
	}
	if err := sb.Send(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv:
		if got.NLRI[0].Prefix != pfx("203.0.113.0/24") {
			t.Errorf("NLRI %v", got.NLRI)
		}
		if got.Attrs.FirstASN() != 65002 {
			t.Errorf("first ASN %d", got.Attrs.FirstASN())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update not delivered")
	}
	if sb.UpdatesOut.Load() != 1 {
		t.Errorf("UpdatesOut = %d", sb.UpdatesOut.Load())
	}
}

func TestSessionAddPathNegotiation(t *testing.T) {
	recv := make(chan *Update, 1)
	sa, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
			AddPath:  map[AFISAFI]uint8{IPv4Unicast: AddPathReceive},
			OnUpdate: func(u *Update) { recv <- keep(u) }},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			AddPath: map[AFISAFI]uint8{IPv4Unicast: AddPathSend}},
	)
	if !sb.AddPathSendEnabled(IPv4Unicast) {
		t.Fatal("sender should have ADD-PATH send enabled")
	}
	if sa.AddPathSendEnabled(IPv4Unicast) {
		t.Fatal("receiver should not send path IDs")
	}
	// Two paths for the same prefix in one session — the core of vBGP's
	// control-plane delegation (§3.2.1).
	attrs := &PathAttrs{Origin: OriginIGP, HasOrigin: true,
		ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65002}}},
		NextHop: ip("127.65.0.1")}
	u := &Update{Attrs: attrs, NLRI: []NLRI{
		{Prefix: pfx("192.168.0.0/24"), ID: 1},
		{Prefix: pfx("192.168.0.0/24"), ID: 2},
	}}
	if err := sb.Send(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv:
		if len(got.NLRI) != 2 || got.NLRI[0].ID != 1 || got.NLRI[1].ID != 2 {
			t.Errorf("path IDs lost: %v", got.NLRI)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update not delivered")
	}
}

func TestSessionAddPathNotNegotiatedWithoutReceiver(t *testing.T) {
	_, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			AddPath: map[AFISAFI]uint8{IPv4Unicast: AddPathSend}},
	)
	if sb.AddPathSendEnabled(IPv4Unicast) {
		t.Error("ADD-PATH enabled unilaterally")
	}
}

func TestSessionWrongASNRejected(t *testing.T) {
	ca, cb := pipe.New()
	errs := make(chan error, 2)
	sa := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")})
	sb := NewSession(cb, Config{LocalASN: 65099, RemoteASN: 65001, LocalID: ip("10.0.0.2")})
	go func() { errs <- sa.Run() }()
	go func() { errs <- sb.Run() }()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("want error for ASN mismatch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sessions did not fail")
	}
}

func TestSessionSendBeforeEstablished(t *testing.T) {
	ca, _ := pipe.New()
	s := NewSession(ca, Config{LocalASN: 1, RemoteASN: 2, LocalID: ip("1.1.1.1")})
	if err := s.Send(&Update{}); err == nil {
		t.Error("Send before establish should fail")
	}
}

func TestSessionCloseDeliversCease(t *testing.T) {
	closed := make(chan error, 1)
	sa, _ := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			OnClose: func(err error) { closed <- err }},
	)
	sa.Close()
	select {
	case err := <-closed:
		n, ok := err.(*Notification)
		if !ok || n.Code != ErrCodeCease {
			t.Errorf("close err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer did not observe close")
	}
}

func TestSessionHoldTimerExpiry(t *testing.T) {
	// A peer that opens but then goes silent (no keepalives): our side
	// must drop the session when the hold time passes. The minimum legal
	// non-zero hold time is 3s, so this test takes a few seconds.
	if testing.Short() {
		t.Skip("hold timer test sleeps several seconds")
	}
	ca, cb := pipe.New()
	errs := make(chan error, 1)
	s := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
		HoldTime: 3 * time.Second})
	go func() { errs <- s.Run() }()

	// Hand-roll the silent peer: send OPEN + one KEEPALIVE, then nothing.
	opts := &codecOpts{}
	open, _ := marshalMessage(&Open{Version: Version, ASN: 65002, HoldTime: 3,
		BGPID: ip("10.0.0.2"), Caps: &Capabilities{AS4: 65002}}, opts)
	cb.Write(open)
	ka, _ := marshalMessage(&Keepalive{}, opts)
	cb.Write(ka)

	select {
	case err := <-errs:
		ne, ok := err.(*NotificationError)
		if !ok || ne.Code != ErrCodeHoldTimer {
			t.Errorf("err = %v, want hold timer expiry", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hold timer never fired")
	}
}

func TestSessionRouteRefresh(t *testing.T) {
	sa, _ := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2")},
	)
	if err := sa.SendRouteRefresh(IPv4Unicast); err != nil {
		t.Fatal(err)
	}
}

func TestMRAIPacesReadvertisements(t *testing.T) {
	recv := make(chan *Update, 64)
	sa, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
			OnUpdate: func(u *Update) { recv <- keep(u) }},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			MRAI: 200 * time.Millisecond},
	)
	mk := func(med uint32) *Update {
		a := &PathAttrs{Origin: OriginIGP, HasOrigin: true,
			ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65002}}},
			NextHop: ip("10.0.0.2"), MED: med, HasMED: true}
		return &Update{Attrs: a, NLRI: []NLRI{{Prefix: pfx("203.0.113.0/24")}}}
	}
	// Flap the prefix 10 times rapidly: the first goes out immediately,
	// the rest coalesce into ONE paced re-advertisement carrying the
	// newest version.
	for i := 0; i < 10; i++ {
		if err := sb.Send(mk(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Settled: sb holds no paced batch and has written everything, and
	// sa has read and handed on all of it.
	waitFor(t, "the paced batch to be sent", sb.Quiesced)
	waitFor(t, "sa to read what sb queued", func() bool {
		return sa.BytesIn.Load() == sb.BytesOut.Load() && len(recv) == int(sa.UpdatesIn.Load())
	})
	var got []*Update
	for len(recv) > 0 {
		got = append(got, <-recv)
	}
	if len(got) != 2 {
		t.Fatalf("received %d updates, want 2 (initial + one paced)", len(got))
	}
	if got[1].Attrs.MED != 9 {
		t.Errorf("paced update MED = %d, want the newest version 9", got[1].Attrs.MED)
	}
	if s := sb.MRAISuppressed.Load(); s != 9 {
		t.Errorf("suppressed = %d, want 9", s)
	}
	// A different prefix is not delayed by this one's interval.
	other := mk(0)
	other.NLRI = []NLRI{{Prefix: pfx("203.0.114.0/24")}}
	if err := sb.Send(other); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-recv:
		if u.NLRI[0].Prefix != pfx("203.0.114.0/24") {
			t.Errorf("unexpected paced leftover %v", u.NLRI)
		}
	case <-time.After(time.Second):
		t.Fatal("independent prefix delayed")
	}
}

func TestMRAIWithdrawalsImmediate(t *testing.T) {
	recv := make(chan *Update, 16)
	_, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
			OnUpdate: func(u *Update) { recv <- keep(u) }},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			MRAI: time.Hour},
	)
	w := &Update{Withdrawn: []NLRI{{Prefix: pfx("203.0.113.0/24")}}}
	if err := sb.Send(w); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-recv:
		if len(u.Withdrawn) != 1 {
			t.Errorf("got %v", u)
		}
	case <-time.After(time.Second):
		t.Fatal("withdrawal was paced; it must go out immediately")
	}
}

func TestSessionRejectsBadBGPID(t *testing.T) {
	ca, cb := pipe.New()
	errs := make(chan error, 1)
	s := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")})
	go func() { errs <- s.Run() }()
	// Hand-rolled OPEN with the illegal 0.0.0.0 identifier.
	open, _ := marshalMessage(&Open{Version: Version, ASN: 65002, HoldTime: 90,
		BGPID: ip("0.0.0.0"), Caps: &Capabilities{AS4: 65002}}, &codecOpts{})
	cb.Write(open)
	select {
	case err := <-errs:
		ne, ok := err.(*NotificationError)
		if !ok || ne.Code != ErrCodeOpen || ne.Subcode != ErrSubBadBGPID {
			t.Errorf("err = %v, want bad-BGP-ID notification", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session accepted a zero BGP identifier")
	}
}

func TestSessionRejectsIllegalHoldTime(t *testing.T) {
	ca, cb := pipe.New()
	errs := make(chan error, 1)
	s := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")})
	go func() { errs <- s.Run() }()
	// Hold time 1 and 2 are illegal per RFC 4271 §4.2.
	open, _ := marshalMessage(&Open{Version: Version, ASN: 65002, HoldTime: 2,
		BGPID: ip("10.0.0.2"), Caps: &Capabilities{AS4: 65002}}, &codecOpts{})
	cb.Write(open)
	select {
	case err := <-errs:
		ne, ok := err.(*NotificationError)
		if !ok || ne.Subcode != ErrSubUnacceptableHold {
			t.Errorf("err = %v, want unacceptable hold time", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session accepted an illegal hold time")
	}
}

func TestSessionRejectsUpdateBeforeEstablished(t *testing.T) {
	ca, cb := pipe.New()
	errs := make(chan error, 1)
	s := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")})
	go func() { errs <- s.Run() }()
	opts := &codecOpts{}
	open, _ := marshalMessage(&Open{Version: Version, ASN: 65002, HoldTime: 90,
		BGPID: ip("10.0.0.2"), Caps: &Capabilities{AS4: 65002}}, opts)
	cb.Write(open)
	// UPDATE straight after OPEN, skipping the keepalive: FSM error.
	u, _ := marshalMessage(&Update{Withdrawn: []NLRI{{Prefix: pfx("10.0.0.0/24")}}}, opts)
	cb.Write(u)
	select {
	case err := <-errs:
		ne, ok := err.(*NotificationError)
		if !ok || ne.Code != ErrCodeFSM {
			t.Errorf("err = %v, want FSM error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("out-of-order UPDATE accepted")
	}
}

func TestSessionRejectsSecondOpen(t *testing.T) {
	ca, cb := pipe.New()
	errs := make(chan error, 1)
	s := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")})
	go func() { errs <- s.Run() }()
	opts := &codecOpts{}
	open, _ := marshalMessage(&Open{Version: Version, ASN: 65002, HoldTime: 90,
		BGPID: ip("10.0.0.2"), Caps: &Capabilities{AS4: 65002}}, opts)
	cb.Write(open)
	ka, _ := marshalMessage(&Keepalive{}, opts)
	cb.Write(ka)
	cb.Write(open) // duplicate OPEN mid-session
	select {
	case err := <-errs:
		ne, ok := err.(*NotificationError)
		if !ok || ne.Code != ErrCodeFSM {
			t.Errorf("err = %v, want FSM error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate OPEN accepted")
	}
}

func TestSessionPureTwoOctet(t *testing.T) {
	// Both sides without the 4-octet-AS capability: classic 2-octet
	// session end to end.
	recv := make(chan *Update, 1)
	sa, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
			DisableAS4: true, OnUpdate: func(u *Update) { recv <- keep(u) }},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			DisableAS4: true},
	)
	if sa.RemoteCaps().AS4 != 0 || sb.RemoteCaps().AS4 != 0 {
		t.Fatal("AS4 capability advertised despite DisableAS4")
	}
	u := &Update{
		Attrs: &PathAttrs{Origin: OriginIGP, HasOrigin: true,
			ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65002, 64999}}},
			NextHop: ip("10.0.0.2")},
		NLRI: []NLRI{{Prefix: pfx("203.0.113.0/24")}},
	}
	if err := sb.Send(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv:
		flat := got.Attrs.ASPathFlat()
		if len(flat) != 2 || flat[0] != 65002 || flat[1] != 64999 {
			t.Errorf("2-octet path %v", flat)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update not delivered")
	}
}

// RemoteASN returns the peer's negotiated 4-octet ASN (valid once the
// session leaves OpenSent).
func (s *Session) RemoteASN() uint32 { return s.negotiated.remoteASN }

// RemoteCaps returns the peer's capability set.
func (s *Session) RemoteCaps() *Capabilities { return s.negotiated.remoteCaps }

// AddPathSendEnabled reports whether we encode path IDs for family f.
func (s *Session) AddPathSendEnabled(f AFISAFI) bool {
	switch f {
	case IPv4Unicast:
		return s.enc.addPathV4
	case IPv6Unicast:
		return s.enc.addPathV6
	}
	return false
}

// SendRouteRefresh requests re-advertisement of family f from the peer.
func (s *Session) SendRouteRefresh(f AFISAFI) error {
	return s.write(&RouteRefresh{Family: f})
}
