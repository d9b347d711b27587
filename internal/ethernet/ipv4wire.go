package ethernet

import "encoding/binary"

// Operations on an IPv4 packet as it sits on the wire, for forwarders
// that change one header byte and must not pay a decode into IPv4 and a
// re-marshal for it (which would also strip the header's options).

// CheckIPv4 validates the IPv4 header at the start of data with exactly
// the checks IPv4.DecodeFromBytes makes — version, header length within
// bounds, header checksum, total length within the buffer — and returns
// the header length and the datagram's total length. Bytes of data past
// total are link-layer padding.
func CheckIPv4(data []byte) (ihl, total int, ok bool) {
	if len(data) < IPv4HeaderLen || data[0]>>4 != 4 {
		return 0, 0, false
	}
	ihl = int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl || Checksum(data[:ihl]) != 0 {
		return 0, 0, false
	}
	total = int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		return 0, 0, false
	}
	return ihl, total, true
}

// DecrementTTL lowers the TTL of the IPv4 header at the start of hdr by
// one and patches the header checksum incrementally (RFC 1624 eqn. 3:
// HC' = ~(~HC + ~m + m')), so the cost does not depend on the header
// length and options ride along untouched. hdr must have passed
// CheckIPv4 and carry a TTL of at least 1.
func DecrementTTL(hdr []byte) {
	old := binary.BigEndian.Uint16(hdr[8:10]) // TTL and protocol share a word
	hdr[8]--
	sum := uint32(^binary.BigEndian.Uint16(hdr[10:12])) + uint32(^old) + uint32(old-0x0100)
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	binary.BigEndian.PutUint16(hdr[10:12], ^uint16(sum))
}
