package ethernet

import "sync"

// Pooled frame buffers. Whoever puts a frame on the wire — a netsim
// interface serializing a Frame, the vBGP forwarder rewriting a packet,
// the experiment client framing a datagram — builds the bytes in a
// checked-out buffer and releases it when the synchronous delivery has
// returned, so a busy sender reuses one backing array instead of
// allocating per frame. The discipline is bgp/pool.go's: a buffer is
// reset (length zero) before it re-enters the pool, and one that has
// grown past maxPooledBufferCap is left to the GC.

const (
	// bufferCap is the capacity new buffers start with: an Ethernet frame
	// at the 1 500-byte MTU fits with its header without growing.
	bufferCap = 2048
	// maxPooledBufferCap is the largest buffer Release returns to the
	// pool: twice the largest frame a tunnel carries (65 535 bytes), so a
	// buffer that doubled its way past one is still reused, while a
	// one-off giant frame does not pin its size for the life of the
	// process.
	maxPooledBufferCap = 128 << 10
)

// Buffer is a reusable frame buffer. B is the caller's to append to
// between GetBuffer and Release.
type Buffer struct {
	B []byte
}

var bufferPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, bufferCap)} },
}

// GetBuffer checks a buffer out of the pool; B has length zero.
func GetBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// Release returns the buffer to the pool. The caller must not touch b or
// any slice of b.B afterwards.
func (b *Buffer) Release() {
	if cap(b.B) > maxPooledBufferCap {
		return
	}
	b.B = b.B[:0]
	bufferPool.Put(b)
}
