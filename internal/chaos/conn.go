package chaos

import (
	"net"
	"sync"
	"time"
)

// corruptReads is how many subsequent reads a Corrupt fault poisons.
const corruptReads = 3

// faultConn wraps a net.Conn and applies whatever fault state the
// injector has set on it. Read/Write consult the state under a mutex
// but sleep outside it, so a stalled conn does not block Inject.
type faultConn struct {
	net.Conn
	inj              *Injector
	class, name, pop string

	mu              sync.Mutex
	stallReadUntil  time.Time
	stallWriteUntil time.Time
	delayUntil      time.Time
	delay           time.Duration
	corrupt         int
	closed          bool
}

func newFaultConn(in *Injector, class, name, pop string, c net.Conn) *faultConn {
	return &faultConn{Conn: c, inj: in, class: class, name: name, pop: pop}
}

// apply sets the fault state for one conn-targeted fault kind.
func (c *faultConn) apply(kind FaultKind, d time.Duration) {
	switch kind {
	case Reset:
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.inj.metrics.resets.Inc()
		_ = c.Conn.Close()
		return
	}
	now := time.Now()
	c.mu.Lock()
	switch kind {
	case StallRead:
		c.stallReadUntil = now.Add(d)
	case StallWrite:
		c.stallWriteUntil = now.Add(d)
	case Corrupt:
		c.corrupt = corruptReads
	case Delay:
		c.delay = d / 10
		if c.delay <= 0 {
			c.delay = time.Millisecond
		}
		c.delayUntil = now.Add(d)
	}
	c.mu.Unlock()
}

// pause sleeps until deadline unless the conn closes first.
func (c *faultConn) pause(deadline time.Time) {
	for {
		wait := time.Until(deadline)
		if wait <= 0 {
			return
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		if wait > 5*time.Millisecond {
			wait = 5 * time.Millisecond
		}
		time.Sleep(wait)
	}
}

func (c *faultConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	stall := c.stallReadUntil
	var lat time.Duration
	if time.Now().Before(c.delayUntil) {
		lat = c.delay
	}
	c.mu.Unlock()
	if time.Now().Before(stall) {
		c.pause(stall)
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.mu.Lock()
		corrupt := c.corrupt > 0
		if corrupt {
			c.corrupt--
		}
		c.mu.Unlock()
		if corrupt {
			b[n/2] ^= 0xFF
			c.inj.metrics.corruptions.Inc()
		}
	}
	return n, err
}

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	stall := c.stallWriteUntil
	var lat time.Duration
	if time.Now().Before(c.delayUntil) {
		lat = c.delay
	}
	c.mu.Unlock()
	if time.Now().Before(stall) {
		c.pause(stall)
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	return c.Conn.Write(b)
}

// Buffered forwards the wrapped transport's count of unread bytes.
func (c *faultConn) Buffered() int {
	if b, ok := c.Conn.(interface{ Buffered() int }); ok {
		return b.Buffered()
	}
	return 0
}

func (c *faultConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

func (c *faultConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
