package bgp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pipe"
)

// TestDecodeRandomBytesNeverPanics hammers the wire decoder with random
// message bodies of every type: malformed input must produce errors, not
// panics or hangs. This is the property that protects the platform from
// a misbehaving experiment sending garbage (§4.7).
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	fn := func(typ uint8, body []byte, as4, ap4, ap6 bool) bool {
		opts := &codecOpts{as4: as4, addPathV4: ap4, addPathV6: ap6}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decodeBody(type %d, %d bytes) panicked: %v", typ%6, len(body), r)
			}
		}()
		decodeBody(typ%6, body, opts, new(Update))
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestParseAttrsRandomBytesNeverPanics targets the attribute parser,
// the most structurally complex decoder.
func TestParseAttrsRandomBytesNeverPanics(t *testing.T) {
	fn := func(body []byte, as4, addPath bool) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parseAttrs(%d bytes) panicked: %v", len(body), r)
			}
		}()
		parseAttrs(body, as4, addPath, nil, nil)
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestGarbageOnWireClosesSessionCleanly connects a session to a peer
// that speaks garbage after a valid handshake: the session must
// terminate with an error rather than wedge.
func TestGarbageOnWireClosesSessionCleanly(t *testing.T) {
	ca, cb := pipe.New()
	errs := make(chan error, 1)
	s := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")})
	go func() { errs <- s.Run() }()

	open, _ := marshalMessage(&Open{Version: Version, ASN: 65002, HoldTime: 90,
		BGPID: ip("10.0.0.2"), Caps: &Capabilities{AS4: 65002}}, &codecOpts{})
	cb.Write(open)
	ka, _ := marshalMessage(&Keepalive{}, &codecOpts{})
	cb.Write(ka)
	// Now garbage: a correct marker but absurd declared length.
	junk := append(append([]byte{}, marker[:]...), 0xff, 0xff, 9)
	cb.Write(junk)

	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("session ended without error on garbage input")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session wedged on garbage input")
	}
}

func TestSessionRouteRefreshCallback(t *testing.T) {
	ca, cb := pipe.New()
	refreshed := make(chan AFISAFI, 1)
	established := make(chan struct{}, 2)
	sa := NewSession(ca, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
		OnRouteRefresh: func(f AFISAFI) { refreshed <- f },
		OnEstablished:  func() { established <- struct{}{} }})
	sb := NewSession(cb, Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
		OnEstablished: func() { established <- struct{}{} }})
	go sa.Run()
	go sb.Run()
	defer sa.Close()
	defer sb.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-established:
		case <-time.After(5 * time.Second):
			t.Fatal("not established")
		}
	}
	if err := sb.SendRouteRefresh(IPv6Unicast); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-refreshed:
		if f != IPv6Unicast {
			t.Errorf("family %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("refresh callback never fired")
	}
}
