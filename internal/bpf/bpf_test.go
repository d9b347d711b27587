package bpf

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"repro/internal/ethernet"
)

func frame(t testing.TB, typ ethernet.EtherType, payload []byte) []byte {
	t.Helper()
	f := ethernet.Frame{
		Dst: ethernet.MAC{1}, Src: ethernet.MAC{2}, Type: typ, Payload: payload,
	}
	return f.Marshal()
}

func ipv4Frame(t testing.TB, src, dst string) []byte {
	t.Helper()
	ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst)}
	return frame(t, ethernet.TypeIPv4, ip.Marshal())
}

func ipv6Frame(t testing.TB, src, dst string) []byte {
	t.Helper()
	ip := ethernet.IPv6{HopLimit: 64, NextHeader: ethernet.ProtoUDP,
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst)}
	return frame(t, ethernet.TypeIPv6, ip.Marshal())
}

func TestSourceIPFilterIPv4(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{
		netip.MustParsePrefix("184.164.224.0/23"),
		netip.MustParsePrefix("10.5.0.0/16"),
		netip.MustParsePrefix("192.0.2.7/32"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src  string
		want Verdict
	}{
		{"184.164.224.1", VerdictPass},
		{"184.164.225.255", VerdictPass},
		{"184.164.226.1", VerdictDrop}, // outside the /23
		{"10.5.9.9", VerdictPass},
		{"10.6.0.1", VerdictDrop},
		{"192.0.2.7", VerdictPass},
		{"192.0.2.6", VerdictDrop},
		{"8.8.8.8", VerdictDrop}, // spoofed
	}
	for _, c := range cases {
		if v := p.Run(ipv4Frame(t, c.src, "192.0.2.1")); v != c.want {
			t.Errorf("src %s: verdict %v, want %v", c.src, v, c.want)
		}
	}
	if _, err := SourceIPFilter("bad", []netip.Prefix{{}}); err == nil {
		t.Error("an invalid prefix compiled")
	}
}

func TestSourceIPFilterIPv6(t *testing.T) {
	p, err := SourceIPFilter("antispoof6", []netip.Prefix{
		netip.MustParsePrefix("2804:269c::/32"),
		netip.MustParsePrefix("2001:db8:0:ab00::/56"), // ends mid-word
		netip.MustParsePrefix("2001:db8::1:2:3:4/100"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src  string
		want Verdict
	}{
		{"2804:269c::1", VerdictPass},
		{"2804:269d::1", VerdictDrop},
		{"2001:db8:0:abff::1", VerdictPass},
		{"2001:db8:0:ac00::1", VerdictDrop},
		{"2001:db8::1:2:3:fff", VerdictPass},
		{"2001:db8::1:2:1003:4", VerdictDrop},
	}
	for _, c := range cases {
		if v := p.Run(ipv6Frame(t, c.src, "2001:db8::1")); v != c.want {
			t.Errorf("src %s: verdict %v, want %v", c.src, v, c.want)
		}
	}
	// An IPv4 allocation does not cover IPv6 sources, nor the reverse.
	if v := p.Run(ipv4Frame(t, "10.0.0.1", "10.0.0.2")); v != VerdictDrop {
		t.Errorf("v4 source passed a v6-only whitelist: %v", v)
	}
}

func TestSourceIPFilterPassesARP(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	arp := ethernet.NewARPRequest(ethernet.MAC{1}, netip.MustParseAddr("192.0.2.9"), netip.MustParseAddr("192.0.2.1"))
	fr := arp.Frame(ethernet.MAC{1})
	if v := p.Run(fr.Marshal()); v != VerdictPass {
		t.Errorf("ARP dropped: %v", v)
	}
}

func TestSourceIPFilterDropsOtherEtherTypes(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{netip.MustParsePrefix("0.0.0.0/0")})
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Run(frame(t, ethernet.EtherType(0x88cc), nil)); v != VerdictDrop {
		t.Errorf("LLDP frame passed: %v", v)
	}
	// A default route whitelist passes any IPv4 source.
	if v := p.Run(ipv4Frame(t, "203.0.113.7", "10.0.0.1")); v != VerdictPass {
		t.Errorf("/0 whitelist dropped: %v", v)
	}
}

// TestSourceIPFilterTruncatedPacketAborts: a frame cut before the end of
// its source address drops (fails closed), whatever the whitelist holds.
func TestSourceIPFilterTruncatedPacketAborts(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("::/0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v4 := ipv4Frame(t, "10.0.0.1", "10.0.0.2")
	v6 := ipv6Frame(t, "2001:db8::1", "2001:db8::2")
	for _, short := range [][]byte{nil, v4[:13], v4[:20], v4[:offIPv4Src+3], v6[:offIPv6Src+15]} {
		if v := p.Run(short); v != VerdictDrop {
			t.Errorf("%d-byte frame: verdict %v, want drop (fail closed)", len(short), v)
		}
	}
	if v := p.Run(v4[:offIPv4Src+4]); v != VerdictPass {
		t.Errorf("frame ending at the IPv4 source: verdict %v, want pass", v)
	}
}

// FuzzTapVerdict checks the compiled verdict against an oracle that
// decodes the frame with package ethernet and decides with
// netip.Prefix.Contains. The allocation is two prefixes cut from the
// frame's own source address, flipped in chosen bits, so that matches,
// near misses and every prefix length (/0, /32, /128, mid-word IPv6) are
// all reached; truncated frames must drop on both sides.
func FuzzTapVerdict(f *testing.F) {
	v4 := ipv4Frame(f, "184.164.224.1", "192.0.2.1")
	v6 := ipv6Frame(f, "2001:db8:0:ab12::1", "2001:db8::2")
	arp := ethernet.NewARPRequest(ethernet.MAC{1}, netip.MustParseAddr("192.0.2.9"), netip.MustParseAddr("192.0.2.1"))
	arpFrame := arp.Frame(ethernet.MAC{1})
	for _, seed := range []struct {
		frame      []byte
		bits4      uint8
		bits6      uint8
		flip4      uint32
		flip6      uint64
		flip6Lower bool
	}{
		{v4, 23, 0, 0, 0, false},
		{v4, 32, 128, 0, 0, false},
		{v4, 32, 128, 1, 0, false},
		{v4, 0, 0, 0xffffffff, 0, false},
		{v4, 24, 0, 0x100, 0, false},
		{v6, 0, 44, 0, 0x10000, false},
		{v6, 0, 44, 0, 0x1000000, false},
		{v6, 0, 100, 0, 1 << 30, true},
		{v6, 0, 128, 0, 1, true},
		{v6, 0, 0, 0, ^uint64(0), false},
		{v6[:offIPv6Src+15], 0, 0, 0, 0, false},
		{v4[:offIPv4Src+3], 0, 0, 0, 0, false},
		{v4[:13], 0, 0, 0, 0, false},
		{arpFrame.Marshal(), 8, 8, 0, 0, false},
		{frame(f, ethernet.EtherType(0x88cc), nil), 0, 0, 0, 0, false},
	} {
		f.Add(seed.frame, seed.bits4, seed.bits6, seed.flip4, seed.flip6, seed.flip6Lower)
	}
	f.Fuzz(func(t *testing.T, frame []byte, bits4, bits6 uint8, flip4 uint32, flip6 uint64, flip6Lower bool) {
		var src4 [4]byte
		var src6 [16]byte
		if len(frame) >= offIPv4Src+4 {
			copy(src4[:], frame[offIPv4Src:])
		}
		if len(frame) >= offIPv6Src+16 {
			copy(src6[:], frame[offIPv6Src:])
		}
		binary.BigEndian.PutUint32(src4[:], binary.BigEndian.Uint32(src4[:])^flip4)
		half := src6[:8]
		if flip6Lower {
			half = src6[8:]
		}
		binary.BigEndian.PutUint64(half, binary.BigEndian.Uint64(half)^flip6)
		allowed := []netip.Prefix{
			netip.PrefixFrom(netip.AddrFrom4(src4), int(bits4%33)),
			netip.PrefixFrom(netip.AddrFrom16(src6), int(bits6%129)),
		}
		p, err := SourceIPFilter("fuzz", allowed)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Run(frame), oracleVerdict(frame, allowed); got != want {
			t.Fatalf("frame %x, allocation %v: verdict %v, oracle %v", frame, allowed, got, want)
		}
	})
}

// oracleVerdict is the anti-spoofing rule restated with the codecs: the
// EtherType comes from an ethernet.Frame decode, the source from its
// fixed offset in the IPv4 or IPv6 header, and the decision from
// netip.Prefix.Contains.
func oracleVerdict(data []byte, allowed []netip.Prefix) Verdict {
	var fr ethernet.Frame
	if fr.DecodeFromBytes(data) != nil {
		return VerdictDrop
	}
	var src netip.Addr
	switch fr.Type {
	case ethernet.TypeARP:
		return VerdictPass
	case ethernet.TypeIPv4:
		if len(fr.Payload) < 16 {
			return VerdictDrop
		}
		src = netip.AddrFrom4([4]byte(fr.Payload[12:16]))
	case ethernet.TypeIPv6:
		if len(fr.Payload) < 24 {
			return VerdictDrop
		}
		src = netip.AddrFrom16([16]byte(fr.Payload[8:24]))
	default:
		return VerdictDrop
	}
	for _, p := range allowed {
		if p.Contains(src) {
			return VerdictPass
		}
	}
	return VerdictDrop
}
