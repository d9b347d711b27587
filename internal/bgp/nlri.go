package bgp

import (
	"fmt"
	"net/netip"
	"slices"
)

// PathID identifies one of several paths for the same prefix on a session
// with the ADD-PATH capability (RFC 7911). Zero when ADD-PATH is not in
// use.
type PathID uint32

// NLRI is one network-layer reachability entry: a prefix, optionally
// tagged with an ADD-PATH identifier.
type NLRI struct {
	Prefix netip.Prefix
	ID     PathID
}

// String formats the NLRI as "prefix" or "prefix id N".
func (n NLRI) String() string {
	if n.ID == 0 {
		return n.Prefix.String()
	}
	return fmt.Sprintf("%s id %d", n.Prefix, n.ID)
}

// appendNLRI appends the wire form of one NLRI entry: optional 4-byte path
// ID, prefix length in bits, then the minimal number of prefix octets.
func appendNLRI(b []byte, n NLRI, addPath bool) []byte {
	if addPath {
		b = append(b, byte(n.ID>>24), byte(n.ID>>16), byte(n.ID>>8), byte(n.ID))
	}
	bits := n.Prefix.Bits()
	b = append(b, byte(bits))
	if a := n.Prefix.Addr(); a.Is4() {
		raw := a.As4()
		return append(b, raw[:(bits+7)/8]...)
	}
	raw := n.Prefix.Addr().As16()
	return append(b, raw[:(bits+7)/8]...)
}

// decodeNLRI parses one NLRI entry from data, returning the entry and the
// number of bytes consumed. v6 selects the address family.
func decodeNLRI(data []byte, addPath, v6 bool) (NLRI, int, error) {
	var n NLRI
	off := 0
	if addPath {
		if len(data) < 4 {
			return n, 0, fmt.Errorf("%w: ADD-PATH id", ErrTruncated)
		}
		n.ID = PathID(uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3]))
		off = 4
	}
	if len(data) < off+1 {
		return n, 0, fmt.Errorf("%w: NLRI length octet", ErrTruncated)
	}
	bits := int(data[off])
	off++
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return n, 0, fmt.Errorf("bgp: NLRI prefix length %d exceeds %d", bits, maxBits)
	}
	nbytes := (bits + 7) / 8
	if len(data) < off+nbytes {
		return n, 0, fmt.Errorf("%w: NLRI prefix bytes", ErrTruncated)
	}
	var addr netip.Addr
	if v6 {
		var raw [16]byte
		copy(raw[:], data[off:off+nbytes])
		addr = netip.AddrFrom16(raw)
	} else {
		var raw [4]byte
		copy(raw[:], data[off:off+nbytes])
		addr = netip.AddrFrom4(raw)
	}
	p := netip.PrefixFrom(addr, bits)
	if p.Masked() != p {
		// Tolerate non-canonical prefixes by masking, as routers do.
		p = p.Masked()
	}
	n.Prefix = p
	return n, off + nbytes, nil
}

// appendNLRIList appends the NLRI entries occupying all of data to dst
// and returns the extended slice.
func appendNLRIList(dst []NLRI, data []byte, addPath, v6 bool) ([]NLRI, error) {
	if len(data) == 0 {
		return dst, nil
	}
	// Pre-count the entries so a packed thousand-route block decodes
	// into at most one allocation. Malformed data only skews the
	// capacity; the decode loop below reports the error.
	count := 0
	for off := 0; off < len(data); count++ {
		if addPath {
			off += 4
		}
		if off >= len(data) {
			break
		}
		off += 1 + (int(data[off])+7)/8
	}
	dst = slices.Grow(dst, count)
	for len(data) > 0 {
		n, used, err := decodeNLRI(data, addPath, v6)
		if err != nil {
			return dst, err
		}
		dst = append(dst, n)
		data = data[used:]
	}
	return dst, nil
}
