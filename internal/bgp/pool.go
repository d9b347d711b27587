package bgp

import (
	"sync"
	"sync/atomic"
)

// Pooled UPDATE encode buffers. Every outbound message — single sends
// and batched blocks alike — is framed into a checked-out buffer, so a
// busy session reuses the same backing array instead of allocating per
// message. Buffers are reset (length zero) before they re-enter the
// pool; one that has grown past maxPooledEncodeCap is dropped for the
// GC instead, so a single giant table dump doesn't pin its high-water
// mark for the life of the process.

const (
	// encodeBufCap is the capacity new pooled buffers start with:
	// enough for several coalesced UPDATEs without growing.
	encodeBufCap = 4096
	// maxPooledEncodeCap is the largest buffer release will return to
	// the pool.
	maxPooledEncodeCap = 1 << 20
)

var encPool = sync.Pool{
	New: func() any { return &encodeBuffer{buf: make([]byte, 0, encodeBufCap)} },
}

// encodeBuffer is a reusable message-framing buffer. On the output path
// it is reference-counted: the encoder holds one reference, every
// session queue a block is fanned out to holds another, and whoever
// drops the last one returns the buffer to the pool. Once a second
// holder exists the bytes are immutable.
type encodeBuffer struct {
	buf  []byte
	refs atomic.Int32
}

// getEncodeBuffer checks a buffer out of the pool. The returned buffer
// always has length zero and no counted references: a caller that keeps
// it to itself pairs this with release, one that hands it on with
// hold/drop.
func getEncodeBuffer() *encodeBuffer {
	e := encPool.Get().(*encodeBuffer)
	e.buf = e.buf[:0]
	return e
}

// release resets the buffer and returns it to the pool, reporting
// whether it was pooled (false for oversized buffers, which are left to
// the GC). The caller must not touch e afterwards.
func (e *encodeBuffer) release() bool {
	if cap(e.buf) > maxPooledEncodeCap {
		return false
	}
	e.buf = e.buf[:0]
	e.refs.Store(0)
	encPool.Put(e)
	return true
}

// hold adds a reference for one more holder of the (now immutable)
// bytes.
func (e *encodeBuffer) hold() { e.refs.Add(1) }

// drop gives up one reference; the last one out releases the buffer. A
// holder that disappears without dropping (a queue abandoned by a dying
// session) merely leaves the buffer to the GC.
func (e *encodeBuffer) drop() {
	if e.refs.Add(-1) == 0 {
		e.release()
	}
}
