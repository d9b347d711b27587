//go:build !race

package peering

import (
	"net/netip"
	"sync/atomic"
	"testing"

	"repro/internal/ethernet"
)

// TestInboundPacketAllocatesNothing is the client's packet-receive
// allocation guard: a data-plane frame that the PoP sends down an open
// tunnel reaches Client.OnPacket without an allocation. The tunnel's
// read loop decodes every packet into the one IPv4 header its frame
// handler owns and lends it, payload aliasing the read buffer, to the
// callback. (The race detector instruments allocation; the guard is
// pinned in CI's plain test job.)
func TestInboundPacketAllocatesNothing(t *testing.T) {
	const frames = 1024
	p := NewPlatform(PlatformConfig{ASN: 47065})
	pop, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Proposal{Name: "exp1", Owner: "alice", Plan: "receive traffic",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/24")}, ASNs: []uint32{expASN}}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("exp1", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("exp1", key, expASN)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	from := ethernet.MAC{0x02, 0x7f, 0, 0, 0, 1}
	var got, bad, target atomic.Int64
	done := make(chan struct{}, 1)
	if err := c.OnPacket("amsix", func(ip *ethernet.IPv4, mac ethernet.MAC) {
		if ip.TTL != 63 || mac != from || len(ip.Payload) != 72 {
			bad.Add(1)
		}
		if got.Add(1) == target.Load() {
			done <- struct{}{}
		}
	}); err != nil {
		t.Fatal(err)
	}
	pc, err := c.conn("amsix")
	if err != nil {
		t.Fatal(err)
	}
	pkt := ethernet.IPv4{TTL: 63, Protocol: ethernet.ProtoUDP, Src: addr("9.9.9.9"), Dst: addr("184.164.224.9"),
		Payload: make([]byte, 72)}
	frame := (&ethernet.Frame{Dst: clientMACFor(pc), Src: from, Type: ethernet.TypeIPv4, Payload: pkt.Marshal()}).Marshal()
	deliver := func() {
		target.Store(got.Load() + frames)
		for i := 0; i < frames; i++ {
			if err := pc.serverTun.SendFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
		select { // no timer here: it would count against the receive path
		case <-done:
		case <-pc.transport().Done():
			t.Fatalf("tunnel ended after %d of %d packets", got.Load(), target.Load())
		}
	}
	deliver() // warm-up: the carrier's buffer grows to a burst
	// Process-wide mallocs over 5×1024 packets: a stray allocation on
	// another goroutine stays far below one per hundred packets.
	per := testing.AllocsPerRun(5, deliver) / frames
	t.Logf("%.3f allocations per inbound packet", per)
	if per > 0.01 {
		t.Errorf("%.3f allocations per packet delivered to OnPacket, want 0", per)
	}
	if bad.Load() != 0 {
		t.Errorf("%d of %d packets reached OnPacket with the wrong TTL, source MAC or payload", bad.Load(), got.Load())
	}
}
