// Package bgp implements the BGP-4 protocol (RFC 4271) as used by vBGP:
// message encoding and decoding, path attributes, capability negotiation
// (RFC 5492), 4-octet AS numbers (RFC 6793), communities (RFC 1997) and
// large communities (RFC 8092), multiprotocol reachability for IPv6
// (RFC 4760), ADD-PATH (RFC 7911), route refresh (RFC 2918), the session
// finite state machine (RFC 4271 §8), and a Speaker that runs sessions
// over arbitrary net.Conn transports.
package bgp

import (
	"errors"
	"fmt"
)

// Message type codes (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
	MsgRouteRefresh = 5 // RFC 2918
)

// Protocol constants.
const (
	// Version is the only supported BGP version.
	Version = 4
	// HeaderLen is the fixed message header length.
	HeaderLen = 19
	// MaxMessageLen is the largest legal BGP message (RFC 4271 §4.1).
	MaxMessageLen = 4096
	// ASTrans is the 2-octet placeholder for 4-octet AS numbers
	// (RFC 6793).
	ASTrans = 23456
	// DefaultHoldTime is the hold time proposed in OPEN messages.
	DefaultHoldTime = 90
)

// AFI/SAFI values used by the multiprotocol extensions.
const (
	AFIIPv4 uint16 = 1
	AFIIPv6 uint16 = 2

	SAFIUnicast uint8 = 1
)

// ErrTruncated reports a message or attribute shorter than its declared
// length.
var ErrTruncated = errors.New("bgp: truncated message")

// NotificationError carries the error code/subcode of a NOTIFICATION that
// should be (or was) sent for a protocol error.
type NotificationError struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Notification error codes (RFC 4271 §4.5).
const (
	ErrCodeHeader    = 1
	ErrCodeOpen      = 2
	ErrCodeUpdate    = 3
	ErrCodeHoldTimer = 4
	ErrCodeFSM       = 5
	ErrCodeCease     = 6
)

// Selected subcodes.
const (
	// Header subcodes.
	ErrSubBadLength = 2
	ErrSubBadType   = 3
	// OPEN subcodes.
	ErrSubUnsupportedVersion = 1
	ErrSubBadPeerAS          = 2
	ErrSubBadBGPID           = 3
	ErrSubUnacceptableHold   = 6
	// UPDATE subcodes.
	ErrSubMalformedAttrs   = 1
	ErrSubMissingWellKnown = 3
	ErrSubAttrFlags        = 4
	ErrSubAttrLength       = 5
	ErrSubInvalidOrigin    = 6
	ErrSubInvalidNextHop   = 8
	ErrSubMalformedASPath  = 11
	// Cease subcodes (RFC 4486).
	CeaseAdminShutdown  = 2
	CeaseOutOfResources = 8 // a session dropped by the output queue's slow-consumer policy
)

// Error implements the error interface.
func (e *NotificationError) Error() string {
	return fmt.Sprintf("bgp: notification code=%d subcode=%d", e.Code, e.Subcode)
}

// notif builds a NotificationError.
func notif(code, subcode uint8, data ...byte) *NotificationError {
	return &NotificationError{Code: code, Subcode: subcode, Data: data}
}

// marker is the all-ones 16-byte header marker.
var marker = [16]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}
