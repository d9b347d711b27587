// Package ethernet implements wire-format codecs for the layer-2 and
// layer-3 headers that vBGP manipulates: Ethernet II framing, ARP, and
// minimal IPv4/IPv6 headers.
//
// The codecs follow the gopacket convention: each header type has a
// DecodeFromBytes method that parses a byte slice without retaining it,
// and a SerializeTo/AppendTo method that emits the wire representation.
// All multi-byte fields are big-endian (network byte order).
package ethernet

import (
	"fmt"
)

// MAC is a 48-bit IEEE 802 MAC address. It is a value type (comparable,
// usable as a map key), unlike net.HardwareAddr.
type MAC [6]byte

// Broadcast is the all-ones broadcast MAC address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Zero is the all-zeros MAC address, used in ARP requests for the
// unknown target hardware address.
var Zero MAC

// String formats the address in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsMulticast reports whether the group bit (least significant bit of the
// first octet) is set. Broadcast is a special case of multicast.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsZero reports whether m is the all-zeros address.
func (m MAC) IsZero() bool { return m == Zero }
