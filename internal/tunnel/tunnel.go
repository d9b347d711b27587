// Package tunnel implements the authenticated tunnels experiments use to
// reach Peering PoPs (the paper's OpenVPN, §4.5-4.6): a
// challenge-response handshake against credentials issued by the
// management system, followed by a multiplexed carrier with two channels
// — a byte stream for the experiment's BGP session and a frame channel
// bridging the experiment's layer-2 interface onto the PoP's experiment
// LAN.
package tunnel

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/pipe"
)

// Channel tags on the carrier.
const (
	chanControl = 0 // BGP session bytes
	chanData    = 1 // layer-2 frames
)

// maxFrame bounds one mux frame's payload: the largest value the mux
// header's two-byte length field can carry.
const maxFrame = 0xffff

// muxHeaderLen is the mux header: channel tag and payload length.
const muxHeaderLen = 3

// frameBufCap is the size of a tunnel's reusable read buffer, and the
// capacity up to which it keeps its write buffer: an Ethernet frame at
// the 1 500-byte MTU fits with its headers, as do keepalives and single
// UPDATEs on the control channel. A larger control block gets a buffer of
// its own, so a tunnel that once carried a table dump does not hold
// 64 KiB per direction for the rest of its life.
const frameBufCap = 2048

// Credentials maps experiment names to shared keys. The configuration
// pipeline generates it from approved experiments.
type Credentials map[string]string

// Tunnel is one authenticated, multiplexed connection.
type Tunnel struct {
	// Name is the authenticated experiment name.
	Name string
	// Payload is the server-provided configuration blob delivered to the
	// client at handshake (e.g. the assigned tunnel address). Empty on
	// the server side.
	Payload []byte

	carrier net.Conn

	writeMu sync.Mutex
	wbuf    []byte // mux frame under assembly; guarded by writeMu

	// control buffers inbound control-channel bytes so a late or slow
	// BGP reader never stalls data-plane frames on the shared carrier.
	control *pipe.Buffer

	frameMu sync.Mutex
	onFrame func([]byte)

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
}

func newTunnel(name string, carrier net.Conn) *Tunnel {
	t := &Tunnel{Name: name, carrier: carrier, control: pipe.NewBuffer(), done: make(chan struct{})}
	go t.readLoop()
	return t
}

// OnFrame installs the receiver for data-plane frames. frame is the
// tunnel's read buffer, overwritten by the next read: fn must copy what
// it keeps past its return.
func (t *Tunnel) OnFrame(fn func(frame []byte)) {
	t.frameMu.Lock()
	defer t.frameMu.Unlock()
	t.onFrame = fn
}

// SendFrame transmits one layer-2 frame through the tunnel. The bytes are
// copied before it returns.
func (t *Tunnel) SendFrame(frame []byte) error {
	if err := t.writeMux(chanData, frame); err != nil {
		return err
	}
	framesOut.Inc()
	return nil
}

// Control returns a net.Conn carrying the control channel, suitable for
// a BGP session.
func (t *Tunnel) Control() net.Conn {
	return &controlConn{t: t}
}

// Close tears the tunnel down.
func (t *Tunnel) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.control.Close()
		t.carrier.Close()
	})
	return nil
}

// Done is closed when the tunnel ends.
func (t *Tunnel) Done() <-chan struct{} { return t.done }

func (t *Tunnel) writeMux(ch byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("tunnel: frame of %d bytes exceeds %d", len(payload), maxFrame)
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	// Header and payload leave in one carrier write: the reader never
	// wakes for a header whose payload is still to come.
	buf := append(t.wbuf[:0], ch, byte(len(payload)>>8), byte(len(payload)))
	buf = append(buf, payload...)
	if cap(buf) <= frameBufCap {
		t.wbuf = buf
	}
	_, err := t.carrier.Write(buf)
	return err
}

func (t *Tunnel) readLoop() {
	defer t.Close()
	var hdr [muxHeaderLen]byte
	reuse := make([]byte, frameBufCap)
	for {
		if _, err := io.ReadFull(t.carrier, hdr[:]); err != nil {
			t.closeErr = err
			return
		}
		length := int(hdr[1])<<8 | int(hdr[2])
		buf := reuse[:min(length, len(reuse))]
		if length > len(reuse) {
			buf = make([]byte, length)
		}
		if _, err := io.ReadFull(t.carrier, buf); err != nil {
			t.closeErr = err
			return
		}
		switch hdr[0] {
		case chanControl:
			if _, err := t.control.Write(buf); err != nil {
				return
			}
		case chanData:
			framesIn.Inc()
			t.frameMu.Lock()
			fn := t.onFrame
			t.frameMu.Unlock()
			if fn != nil {
				fn(buf)
			}
		}
	}
}

// controlConn adapts the control channel to net.Conn.
type controlConn struct {
	t *Tunnel
}

func (c *controlConn) Read(p []byte) (int, error) { return c.t.control.Read(p) }
func (c *controlConn) Write(p []byte) (int, error) {
	// Chunk writes above the mux frame limit. (bgp.Session's writer caps
	// its coalesced writes at the same 65535 bytes, so a write normally
	// crosses as one frame; a single larger block is cut here.)
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxFrame {
			n = maxFrame
		}
		if err := c.t.writeMux(chanControl, p[:n]); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}
func (c *controlConn) Close() error { return c.t.Close() }

// Buffered reports the unread bytes in the control channel and the carrier.
func (c *controlConn) Buffered() int {
	n := c.t.control.Buffered()
	if b, ok := c.t.carrier.(interface{ Buffered() int }); ok {
		n += b.Buffered()
	}
	return n
}

type tunnelAddr string

func (a tunnelAddr) Network() string { return "tunnel" }
func (a tunnelAddr) String() string  { return string(a) }

func (c *controlConn) LocalAddr() net.Addr  { return tunnelAddr(c.t.Name) }
func (c *controlConn) RemoteAddr() net.Addr { return tunnelAddr(c.t.Name + "-peer") }

// Deadlines are not used by the simulator.
func (c *controlConn) SetDeadline(time.Time) error      { return nil }
func (c *controlConn) SetReadDeadline(time.Time) error  { return nil }
func (c *controlConn) SetWriteDeadline(time.Time) error { return nil }

// handshake message sizes.
const (
	challengeLen = 32
	macLen       = sha256.Size
)

// Serve authenticates the server side of a tunnel on carrier: it issues
// a random challenge, verifies the client's name and HMAC against creds,
// sends the client its configuration blob (config may be nil), and
// returns the established tunnel. The connection is closed on
// authentication failure.
func Serve(carrier net.Conn, creds Credentials, config func(name string) []byte) (*Tunnel, error) {
	var challenge [challengeLen]byte
	if _, err := rand.Read(challenge[:]); err != nil {
		carrier.Close()
		return nil, err
	}
	if _, err := carrier.Write(challenge[:]); err != nil {
		carrier.Close()
		return nil, err
	}
	var nameLen [1]byte
	if _, err := io.ReadFull(carrier, nameLen[:]); err != nil {
		carrier.Close()
		return nil, err
	}
	name := make([]byte, nameLen[0])
	if _, err := io.ReadFull(carrier, name); err != nil {
		carrier.Close()
		return nil, err
	}
	mac := make([]byte, macLen)
	if _, err := io.ReadFull(carrier, mac); err != nil {
		carrier.Close()
		return nil, err
	}
	key, ok := creds[string(name)]
	if !ok || !hmac.Equal(mac, sign(key, challenge[:], string(name))) {
		authFailures.Inc()
		carrier.Write([]byte{0})
		carrier.Close()
		return nil, fmt.Errorf("tunnel: authentication failed for %q", name)
	}
	var blob []byte
	if config != nil {
		blob = config(string(name))
	}
	if len(blob) > 0xffff {
		carrier.Close()
		return nil, fmt.Errorf("tunnel: config blob too large")
	}
	resp := append([]byte{1, byte(len(blob) >> 8), byte(len(blob))}, blob...)
	if _, err := carrier.Write(resp); err != nil {
		carrier.Close()
		return nil, err
	}
	return newTunnel(string(name), carrier), nil
}

// Dial authenticates the client side of a tunnel on carrier with the
// experiment's name and key.
func Dial(carrier net.Conn, name, key string) (*Tunnel, error) {
	if len(name) > 255 {
		carrier.Close()
		return nil, fmt.Errorf("tunnel: name too long")
	}
	var challenge [challengeLen]byte
	if _, err := io.ReadFull(carrier, challenge[:]); err != nil {
		carrier.Close()
		return nil, err
	}
	msg := append([]byte{byte(len(name))}, name...)
	msg = append(msg, sign(key, challenge[:], name)...)
	if _, err := carrier.Write(msg); err != nil {
		carrier.Close()
		return nil, err
	}
	var verdict [1]byte
	if _, err := io.ReadFull(carrier, verdict[:]); err != nil {
		carrier.Close()
		return nil, err
	}
	if verdict[0] != 1 {
		carrier.Close()
		return nil, fmt.Errorf("tunnel: server rejected credentials for %q", name)
	}
	var blobLen [2]byte
	if _, err := io.ReadFull(carrier, blobLen[:]); err != nil {
		carrier.Close()
		return nil, err
	}
	blob := make([]byte, int(blobLen[0])<<8|int(blobLen[1]))
	if _, err := io.ReadFull(carrier, blob); err != nil {
		carrier.Close()
		return nil, err
	}
	t := newTunnel(name, carrier)
	t.Payload = blob
	return t, nil
}

func sign(key string, challenge []byte, name string) []byte {
	h := hmac.New(sha256.New, []byte(key))
	h.Write(challenge)
	h.Write([]byte(name))
	return h.Sum(nil)
}
