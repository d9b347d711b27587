package ethernet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{
		Dst:     MustParseMAC("aa:bb:cc:dd:ee:ff"),
		Src:     MustParseMAC("11:22:33:44:55:66"),
		Type:    TypeIPv4,
		Payload: []byte("hello world"),
	}
	wire := f.Marshal()
	var g Frame
	if err := g.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Type != f.Type || !bytes.Equal(g.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", g, f)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	fn := func(dst, src MAC, typ uint16, payload []byte) bool {
		f := Frame{Dst: dst, Src: src, Type: EtherType(typ), Payload: payload}
		var g Frame
		if err := g.DecodeFromBytes(f.Marshal()); err != nil {
			return false
		}
		return g.Dst == dst && g.Src == src && g.Type == EtherType(typ) && bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var f Frame
	for n := 0; n < HeaderLen; n++ {
		if err := f.DecodeFromBytes(make([]byte, n)); err == nil {
			t.Errorf("decode of %d bytes: want error", n)
		}
	}
	if err := f.DecodeFromBytes(make([]byte, HeaderLen)); err != nil {
		t.Errorf("decode of exactly %d bytes: %v", HeaderLen, err)
	}
	if len(f.Payload) != 0 {
		t.Errorf("empty payload expected, got %d bytes", len(f.Payload))
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARP{
		Op:        ARPReply,
		SenderMAC: MustParseMAC("02:00:00:00:00:01"),
		SenderIP:  netip.MustParseAddr("127.65.0.2"),
		TargetMAC: MustParseMAC("02:00:00:00:00:02"),
		TargetIP:  netip.MustParseAddr("10.0.0.1"),
	}
	var b ARP
	if err := b.DecodeFromBytes(a.Marshal()); err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", b, a)
	}
}

func TestARPRequestReplyFlow(t *testing.T) {
	// Mirrors Fig. 2b: experiment ARPs for next-hop 127.65.0.2, router
	// replies with the MAC it assigned to neighbor N2.
	expMAC := MustParseMAC("0a:00:00:00:00:01")
	n2MAC := MustParseMAC("02:00:22:22:22:22")
	req := NewARPRequest(expMAC, netip.MustParseAddr("100.65.0.9"), netip.MustParseAddr("127.65.0.2"))

	reqFrame := req.Frame(expMAC)
	if reqFrame.Dst != Broadcast {
		t.Error("ARP request frame should be broadcast")
	}

	rep := req.Reply(n2MAC)
	if rep.Op != ARPReply {
		t.Error("reply op")
	}
	if rep.SenderMAC != n2MAC || rep.SenderIP != req.TargetIP {
		t.Errorf("reply sender: %v %v", rep.SenderMAC, rep.SenderIP)
	}
	if rep.TargetMAC != expMAC || rep.TargetIP != req.SenderIP {
		t.Errorf("reply target: %v %v", rep.TargetMAC, rep.TargetIP)
	}
	repFrame := rep.Frame(n2MAC)
	if repFrame.Dst != expMAC {
		t.Error("ARP reply frame should be unicast to requester")
	}
}

func TestARPDecodeErrors(t *testing.T) {
	var a ARP
	if err := a.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("truncated ARP: want error")
	}
	// Unsupported hardware type.
	good := NewARPRequest(MAC{}, netip.MustParseAddr("1.2.3.4"), netip.MustParseAddr("5.6.7.8")).Marshal()
	good[1] = 6 // htype = IEEE 802 instead of Ethernet
	if err := a.DecodeFromBytes(good); err == nil {
		t.Error("bad htype: want error")
	}
}

func TestARPPropertyRoundTrip(t *testing.T) {
	fn := func(op bool, smac, tmac MAC, sip, tip [4]byte) bool {
		a := ARP{Op: ARPRequest, SenderMAC: smac, TargetMAC: tmac,
			SenderIP: netip.AddrFrom4(sip), TargetIP: netip.AddrFrom4(tip)}
		if op {
			a.Op = ARPReply
		}
		var b ARP
		return b.DecodeFromBytes(a.Marshal()) == nil && b == a
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
