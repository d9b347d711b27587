package bgp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pipe"
	"repro/internal/telemetry"
)

// TestDecodeErrorCounted verifies that a malformed message is not a
// silent session death: the decode-error counter for the neighbor must
// account for it.
func TestDecodeErrorCounted(t *testing.T) {
	peer := "test:decode-errors"
	ctr := telemetry.Default().Counter("bgp_decode_errors_total", telemetry.L("peer", peer))
	before := ctr.Value()

	ca, cb := pipe.New()
	s := NewSession(ca, Config{
		LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
		PeerName: peer,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run() }()

	// Feed the session garbage instead of an OPEN: a corrupt marker must
	// fail header validation and tear the session down.
	junk := make([]byte, 64)
	for i := range junk {
		junk[i] = 0xAB
	}
	if _, err := cb.Write(junk); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-runErr:
		var ne *NotificationError
		if !errors.As(err, &ne) || ne.Code != ErrCodeHeader {
			t.Fatalf("session died with %v, want header NotificationError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("session did not shut down on garbage input, state=%s", s.State())
	}
	if got := ctr.Value(); got != before+1 {
		t.Fatalf("bgp_decode_errors_total{peer=%q} = %d, want %d", peer, got, before+1)
	}
	s.Close()
	cb.Close()
}

// TestCleanCloseNotCountedAsDecodeError pins the exclusion: an
// administrative Cease must not inflate the decode-error counter.
func TestCleanCloseNotCountedAsDecodeError(t *testing.T) {
	peerA, peerB := "test:clean-a", "test:clean-b"
	ctrA := telemetry.Default().Counter("bgp_decode_errors_total", telemetry.L("peer", peerA))
	ctrB := telemetry.Default().Counter("bgp_decode_errors_total", telemetry.L("peer", peerB))
	beforeA, beforeB := ctrA.Value(), ctrB.Value()

	sa, sb := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"), PeerName: peerA},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"), PeerName: peerB},
	)
	sa.Close()
	waitFor(t, "the peer to see the Cease", func() bool { return sb.State() == StateIdle })
	if got := ctrA.Value(); got != beforeA {
		t.Errorf("closing side counted %d decode errors", got-beforeA)
	}
	if got := ctrB.Value(); got != beforeB {
		t.Errorf("peer receiving Cease counted %d decode errors", got-beforeB)
	}
}
