package ethernet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{
		TOS:      0x10,
		ID:       0xbeef,
		Flags:    0x2, // DF
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      netip.MustParseAddr("192.168.0.1"),
		Dst:      netip.MustParseAddr("10.1.0.9"),
		Payload:  []byte("payload bytes"),
	}
	var g IPv4
	if err := g.DecodeFromBytes(ip.Marshal()); err != nil {
		t.Fatal(err)
	}
	if g.TOS != ip.TOS || g.ID != ip.ID || g.Flags != ip.Flags || g.TTL != ip.TTL ||
		g.Protocol != ip.Protocol || g.Src != ip.Src || g.Dst != ip.Dst ||
		!bytes.Equal(g.Payload, ip.Payload) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", g, ip)
	}
}

func TestIPv4ChecksumValidation(t *testing.T) {
	wire := (&IPv4{TTL: 64, Protocol: ProtoTCP,
		Src: netip.MustParseAddr("1.1.1.1"), Dst: netip.MustParseAddr("2.2.2.2")}).Marshal()
	wire[8] = 32 // corrupt TTL without fixing checksum
	var g IPv4
	if err := g.DecodeFromBytes(wire); err == nil {
		t.Error("corrupted header accepted")
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var g IPv4
	if err := g.DecodeFromBytes(make([]byte, 19)); err == nil {
		t.Error("truncated: want error")
	}
	wire := (&IPv4{TTL: 1, Src: netip.MustParseAddr("1.1.1.1"), Dst: netip.MustParseAddr("2.2.2.2")}).Marshal()
	bad := append([]byte(nil), wire...)
	bad[0] = 0x65 // version 6
	if err := g.DecodeFromBytes(bad); err == nil {
		t.Error("wrong version: want error")
	}
	bad = append([]byte(nil), wire...)
	bad[0] = 0x44 // IHL 16 bytes < minimum
	if err := g.DecodeFromBytes(bad); err == nil {
		t.Error("short IHL: want error")
	}
}

func TestIPv4TotalLengthBoundsPayload(t *testing.T) {
	// Ethernet padding after the IP datagram must not leak into Payload.
	ip := IPv4{TTL: 64, Src: netip.MustParseAddr("1.1.1.1"), Dst: netip.MustParseAddr("2.2.2.2"), Payload: []byte{1, 2, 3}}
	wire := append(ip.Marshal(), 0, 0, 0, 0, 0) // trailing pad
	var g IPv4
	if err := g.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if len(g.Payload) != 3 {
		t.Errorf("payload length %d, want 3", len(g.Payload))
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	fn := func(tos uint8, id uint16, ttl uint8, proto uint8, src, dst [4]byte, payload []byte) bool {
		ip := IPv4{TOS: tos, ID: id, TTL: ttl, Protocol: proto,
			Src: netip.AddrFrom4(src), Dst: netip.AddrFrom4(dst), Payload: payload}
		var g IPv4
		if err := g.DecodeFromBytes(ip.Marshal()); err != nil {
			return false
		}
		return g.TOS == tos && g.ID == id && g.TTL == ttl && g.Protocol == proto &&
			g.Src == ip.Src && g.Dst == ip.Dst && bytes.Equal(g.Payload, payload)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(fn, cfg); err != nil {
		t.Error(err)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	ip := IPv6{
		TrafficClass: 0x20,
		FlowLabel:    0xabcde,
		NextHeader:   ProtoUDP,
		HopLimit:     64,
		Src:          netip.MustParseAddr("2001:db8::1"),
		Dst:          netip.MustParseAddr("2001:db8:ffff::2"),
		Payload:      []byte("v6 payload"),
	}
	var g IPv6
	if err := g.DecodeFromBytes(ip.Marshal()); err != nil {
		t.Fatal(err)
	}
	if g.TrafficClass != ip.TrafficClass || g.FlowLabel != ip.FlowLabel ||
		g.NextHeader != ip.NextHeader || g.HopLimit != ip.HopLimit ||
		g.Src != ip.Src || g.Dst != ip.Dst || !bytes.Equal(g.Payload, ip.Payload) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", g, ip)
	}
}

func TestIPv6DecodeErrors(t *testing.T) {
	var g IPv6
	if err := g.DecodeFromBytes(make([]byte, 39)); err == nil {
		t.Error("truncated: want error")
	}
	wire := (&IPv6{HopLimit: 1, Src: netip.MustParseAddr("::1"), Dst: netip.MustParseAddr("::2")}).Marshal()
	wire[0] = 0x40 // version 4
	if err := g.DecodeFromBytes(wire); err == nil {
		t.Error("wrong version: want error")
	}
}

func TestIPv6RoundTripProperty(t *testing.T) {
	fn := func(tc uint8, fl uint32, nh, hl uint8, src, dst [16]byte, payload []byte) bool {
		ip := IPv6{TrafficClass: tc, FlowLabel: fl & 0xfffff, NextHeader: nh, HopLimit: hl,
			Src: netip.AddrFrom16(src), Dst: netip.AddrFrom16(dst), Payload: payload}
		var g IPv6
		if err := g.DecodeFromBytes(ip.Marshal()); err != nil {
			return false
		}
		return g.TrafficClass == tc && g.FlowLabel == fl&0xfffff && g.NextHeader == nh &&
			g.HopLimit == hl && g.Src == ip.Src && g.Dst == ip.Dst && bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Example from RFC 1071 discussion: checksum of header with checksum
	// field zero, then verification over the completed header yields 0.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	cs := Checksum(hdr)
	if cs != 0xb861 {
		t.Errorf("checksum = %#04x, want 0xb861", cs)
	}
	hdr[10], hdr[11] = byte(cs>>8), byte(cs)
	if Checksum(hdr) != 0 {
		t.Error("verification of completed header should be 0")
	}
}

func TestChecksumOddLength(t *testing.T) {
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Errorf("odd-length checksum = %#04x", got)
	}
}

// DecodeFromBytes parses the fixed IPv6 header.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < IPv6HeaderLen {
		return fmt.Errorf("%w: IPv6 header needs %d bytes, have %d", ErrTruncated, IPv6HeaderLen, len(data))
	}
	vtf := binary.BigEndian.Uint32(data[0:4])
	if v := vtf >> 28; v != 6 {
		return fmt.Errorf("ethernet: IPv6 version field is %d", v)
	}
	ip.TrafficClass = uint8(vtf >> 20)
	ip.FlowLabel = vtf & 0xfffff
	plen := int(binary.BigEndian.Uint16(data[4:6]))
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	ip.Src = netip.AddrFrom16([16]byte(data[8:24]))
	ip.Dst = netip.AddrFrom16([16]byte(data[24:40]))
	if IPv6HeaderLen+plen > len(data) {
		return fmt.Errorf("%w: IPv6 payload length %d, buffer %d", ErrTruncated, plen, len(data)-IPv6HeaderLen)
	}
	ip.Payload = data[IPv6HeaderLen : IPv6HeaderLen+plen]
	return nil
}
