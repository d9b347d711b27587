package ethernet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// rawIPv4 builds an IPv4 header with optLen bytes of options (a multiple
// of four) around random field values, a valid checksum, and a payload.
func rawIPv4(rng *rand.Rand, optLen int, ttl uint8, payload int) []byte {
	ihl := IPv4HeaderLen + optLen
	b := make([]byte, ihl+payload)
	rng.Read(b)
	b[0] = 0x40 | byte(ihl/4)
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	b[8] = ttl
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint16(b[10:12], Checksum(b[:ihl]))
	return b
}

// recomputed returns hdr's checksum computed from scratch.
func recomputed(hdr []byte) uint16 {
	c := append([]byte(nil), hdr...)
	c[10], c[11] = 0, 0
	return Checksum(c)
}

// checkDecrement applies DecrementTTL to a copy of pkt and compares it
// with the full recompute; only TTL and checksum may differ from pkt.
func checkDecrement(t *testing.T, pkt []byte) {
	t.Helper()
	ihl, _, ok := CheckIPv4(pkt)
	if !ok {
		t.Fatalf("test header rejected: % x", pkt[:IPv4HeaderLen])
	}
	got := append([]byte(nil), pkt...)
	DecrementTTL(got)
	if got[8] != pkt[8]-1 {
		t.Fatalf("TTL %d → %d", pkt[8], got[8])
	}
	if cs, want := binary.BigEndian.Uint16(got[10:12]), recomputed(got[:ihl]); cs != want {
		t.Fatalf("TTL %d, IHL %d, checksum %#04x: incremental update gives %#04x, full recompute %#04x",
			pkt[8], ihl, binary.BigEndian.Uint16(pkt[10:12]), cs, want)
	}
	if Checksum(got[:ihl]) != 0 {
		t.Fatalf("patched header does not verify: % x", got[:ihl])
	}
	want := append([]byte(nil), pkt...)
	copy(want[8:12], got[8:12])
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes other than TTL and checksum changed:\n got % x\nwant % x", got, want)
	}
}

func TestDecrementTTLMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1624))
	for _, optLen := range []int{0, 4, 12, 40} {
		for ttl := 2; ttl <= 255; ttl++ {
			for i := 0; i < 8; i++ {
				checkDecrement(t, rawIPv4(rng, optLen, uint8(ttl), 16))
			}
		}
	}
}

// TestDecrementTTLChecksumCorners pins the case RFC 1624 §3–5 exists
// for: RFC 1141's update (eqn. 2) turns a checksum that should become
// 0x0000 into 0xFFFF. The ID field is searched for headers whose
// checksum is 0x0000 before the decrement, becomes 0x0000 after it, and
// — not canonical, but a receiver must accept it — reads 0xFFFF before.
func TestDecrementTTLChecksumCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(1141))
	for _, optLen := range []int{0, 8} {
		var zeroBefore, zeroAfter, onesBefore int
		for trial := 0; trial < 16; trial++ {
			pkt := rawIPv4(rng, optLen, uint8(2+rng.Intn(254)), 8)
			ihl := IPv4HeaderLen + optLen
			for id := 0; id <= 0xffff; id++ {
				binary.BigEndian.PutUint16(pkt[4:6], uint16(id))
				pkt[10], pkt[11] = 0, 0
				cs := Checksum(pkt[:ihl])
				binary.BigEndian.PutUint16(pkt[10:12], cs)
				after := append([]byte(nil), pkt...)
				after[8]--
				switch {
				case cs == 0x0000:
					zeroBefore++
					checkDecrement(t, pkt)
					// The same header with the other representation of zero.
					pkt[10], pkt[11] = 0xff, 0xff
					onesBefore++
					checkDecrement(t, pkt)
				case recomputed(after[:ihl]) == 0x0000:
					zeroAfter++
					checkDecrement(t, pkt)
				}
			}
		}
		if zeroBefore == 0 || zeroAfter == 0 || onesBefore == 0 {
			t.Errorf("IHL %d: corner cases not reached (0x0000 before: %d, 0x0000 after: %d, 0xFFFF before: %d)",
				IPv4HeaderLen+optLen, zeroBefore, zeroAfter, onesBefore)
		}
	}
}

func TestCheckIPv4Lengths(t *testing.T) {
	rng := rand.New(rand.NewSource(791))
	pkt := rawIPv4(rng, 8, 64, 10)
	padded := append(append([]byte(nil), pkt...), 0, 0, 0, 0, 0, 0)
	ihl, total, ok := CheckIPv4(padded)
	if !ok || ihl != 28 || total != len(pkt) {
		t.Errorf("CheckIPv4 on a padded frame = (%d, %d, %v), want (28, %d, true)", ihl, total, ok, len(pkt))
	}
	if _, _, ok := CheckIPv4(pkt[:len(pkt)-1]); ok {
		t.Error("a packet shorter than its total length was accepted")
	}
}

// FuzzForwardHeader holds the forwarder's wire validator to its oracle:
// CheckIPv4 never panics, accepts exactly the inputs IPv4.DecodeFromBytes
// accepts and bounds the same payload, and on every accepted header that
// can be forwarded the incremental TTL update matches the full
// recompute.
func FuzzForwardHeader(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	f.Add(rawIPv4(rng, 0, 64, 8))
	f.Add(rawIPv4(rng, 8, 2, 0))
	f.Add(append(rawIPv4(rng, 40, 255, 3), 0, 0)) // padded
	f.Add(rawIPv4(rng, 0, 1, 8)[:19])
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ip IPv4
		err := ip.DecodeFromBytes(data)
		ihl, total, ok := CheckIPv4(data)
		if ok != (err == nil) {
			t.Fatalf("CheckIPv4 ok=%v, DecodeFromBytes err=%v", ok, err)
		}
		if !ok {
			return
		}
		if !bytes.Equal(ip.Payload, data[ihl:total]) {
			t.Fatalf("payload bounds differ: CheckIPv4 [%d:%d], decoder %d bytes", ihl, total, len(ip.Payload))
		}
		if data[8] >= 2 {
			checkDecrement(t, data)
		}
	})
}
