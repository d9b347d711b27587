// Package pipe provides an in-memory, buffered, full-duplex connection
// pair implementing net.Conn. Unlike net.Pipe, writes complete without a
// matching read, which lets two BGP speakers exchange OPEN messages
// simultaneously without deadlocking — the behavior a kernel TCP socket
// pair would give.
package pipe

import (
	"io"
	"net"
	"sync"
	"time"
)

// Buffer is an unbounded byte queue usable as one direction of a
// stream: writes never block, reads block until data or close. The
// tunnel package uses it for its control channel so a slow (or not yet
// attached) BGP reader cannot stall data-plane frames.
type Buffer = buffer

// NewBuffer creates an empty Buffer.
func NewBuffer() *Buffer { return newBuffer() }

// Read implements io.Reader.
func (b *buffer) Read(p []byte) (int, error) { return b.read(p) }

// Write implements io.Writer.
func (b *buffer) Write(p []byte) (int, error) { return b.write(p) }

// Close marks the buffer closed; reads drain then return EOF.
func (b *buffer) Close() error { b.close(); return nil }

// Buffered reports how many written bytes have not been read yet.
func (b *buffer) Buffered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data) - b.off
}

// buffer is one direction of the pipe: an unbounded byte queue. The
// unread bytes are data[off:]. Reads advance off and reset the slice
// when they drain it; a write that would grow the array first reclaims
// the read prefix, so a queue that keeps pace with its reader reuses
// one backing array for its whole life.
type buffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	off    int
	closed bool
}

func newBuffer() *buffer {
	b := &buffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *buffer) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	if len(b.data)+len(p) > cap(b.data) && b.off > 0 {
		// Compact when the read prefix is at least as long as the unread
		// rest, so a compaction never copies more than it frees; otherwise
		// double the array, copying only the unread bytes.
		live := b.data[b.off:]
		if b.off >= len(live) {
			live = b.data[:copy(b.data, live)]
		} else {
			live = append(make([]byte, 0, 2*cap(b.data)+len(p)), live...)
		}
		b.data, b.off = live, 0
	}
	b.data = append(b.data, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *buffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.off == len(b.data) && !b.closed {
		b.cond.Wait()
	}
	if b.off == len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	if b.off == len(b.data) {
		b.data, b.off = b.data[:0], 0
	}
	return n, nil
}

func (b *buffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Conn is one endpoint of the pair.
type Conn struct {
	name      string
	rd, wr    *buffer
	closeOnce sync.Once
}

// New returns the two ends of a connected, buffered duplex stream.
func New() (*Conn, *Conn) {
	ab, ba := newBuffer(), newBuffer()
	return &Conn{name: "pipe-a", rd: ba, wr: ab}, &Conn{name: "pipe-b", rd: ab, wr: ba}
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.rd.read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Buffered reports how many bytes the other end wrote that this end has
// not read yet.
func (c *Conn) Buffered() int { return c.rd.Buffered() }

// Close closes both directions; pending and future reads on the peer see
// EOF after draining buffered data.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.close()
		c.rd.close()
	})
	return nil
}

// addr is a trivial net.Addr.
type addr string

func (a addr) Network() string { return "pipe" }
func (a addr) String() string  { return string(a) }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return addr(c.name) }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return addr(c.name + "-peer") }

// SetDeadline is a no-op; the simulator does not use I/O deadlines.
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline is a no-op.
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline is a no-op.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
