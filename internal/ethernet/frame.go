package ethernet

import (
	"errors"
	"fmt"
)

// EtherType identifies the protocol carried in an Ethernet frame payload.
type EtherType uint16

// EtherType values used by the simulator.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
	TypeIPv6 EtherType = 0x86dd
)

// String returns the conventional name of the EtherType.
func (t EtherType) String() string {
	switch t {
	case TypeIPv4:
		return "IPv4"
	case TypeARP:
		return "ARP"
	case TypeIPv6:
		return "IPv6"
	default:
		return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
	}
}

// HeaderLen is the length of an Ethernet II header (no 802.1Q tag).
const HeaderLen = 14

// ErrTruncated is returned when a buffer is too short to contain the
// header being decoded.
var ErrTruncated = errors.New("ethernet: truncated packet")

// Frame is an Ethernet II frame. Payload aliases the decoded buffer when
// produced by DecodeFromBytes; callers that retain a Frame across reuse of
// the input buffer must copy Payload.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    EtherType
	Payload []byte
}

// DecodeFromBytes parses an Ethernet II frame. The Payload field aliases
// data; it is not copied.
func (f *Frame) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return fmt.Errorf("%w: ethernet header needs %d bytes, have %d", ErrTruncated, HeaderLen, len(data))
	}
	copy(f.Dst[:], data[0:6])
	copy(f.Src[:], data[6:12])
	f.Type = EtherType(uint16(data[12])<<8 | uint16(data[13]))
	f.Payload = data[HeaderLen:]
	return nil
}

// AppendTo appends the wire representation of the frame to b and returns
// the extended slice.
func (f *Frame) AppendTo(b []byte) []byte {
	b = append(b, f.Dst[:]...)
	b = append(b, f.Src[:]...)
	b = append(b, byte(f.Type>>8), byte(f.Type))
	return append(b, f.Payload...)
}

// Marshal returns the wire representation of the frame in a fresh slice.
func (f *Frame) Marshal() []byte {
	return f.AppendTo(make([]byte, 0, HeaderLen+len(f.Payload)))
}

// String summarizes the frame for logs.
func (f *Frame) String() string {
	return fmt.Sprintf("%s > %s %s len=%d", f.Src, f.Dst, f.Type, len(f.Payload))
}
