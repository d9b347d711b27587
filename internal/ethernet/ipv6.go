package ethernet

import "net/netip"

// IPv6HeaderLen is the fixed IPv6 header length.
const IPv6HeaderLen = 40

// IPv6 is an IPv6 fixed header (RFC 8200). Extension headers are treated
// as payload. Payload aliases the decoded buffer.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	NextHeader   uint8
	HopLimit     uint8
	Src          netip.Addr
	Dst          netip.Addr
	Payload      []byte
}

// AppendTo appends the wire representation (header + payload) to b. It
// panics if Src or Dst is not IPv6.
func (ip *IPv6) AppendTo(b []byte) []byte {
	vtf := uint32(6)<<28 | uint32(ip.TrafficClass)<<20 | ip.FlowLabel&0xfffff
	src, dst := ip.Src.As16(), ip.Dst.As16()
	b = append(b,
		byte(vtf>>24), byte(vtf>>16), byte(vtf>>8), byte(vtf),
		byte(len(ip.Payload)>>8), byte(len(ip.Payload)),
		ip.NextHeader, ip.HopLimit,
	)
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	return append(b, ip.Payload...)
}

// Marshal returns the wire representation in a fresh slice.
func (ip *IPv6) Marshal() []byte {
	return ip.AppendTo(make([]byte, 0, IPv6HeaderLen+len(ip.Payload)))
}
