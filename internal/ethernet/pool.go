package ethernet

import "sync/atomic"

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
	// freeListSlots is how many idle objects a FreeList parks: more than
	// the frame path ever has checked out at once (one per goroutine
	// sending, a few deep when a delivery forwards), few enough that a
	// full list pins at most a few megabytes of buffers.
	freeListSlots = 32
)

// FreeList is the frame path's pool: a fixed number of slots, each an
// atomic pointer to an idle object. Unlike a sync.Pool it keeps its
// objects across garbage collections — a collection empties a
// sync.Pool, and refilling it puts allocations on the packets that
// follow — and it takes no lock. Get returns nil when every slot is
// empty; Put drops the object, for the GC to take, when every slot is
// full. The zero value is an empty list.
type FreeList[T any] struct {
	slots [freeListSlots]atomic.Pointer[T]
}

// Get takes an idle object out of the list, or returns nil.
func (l *FreeList[T]) Get() *T {
	for i := range l.slots {
		if l.slots[i].Load() != nil {
			if v := l.slots[i].Swap(nil); v != nil {
				return v
			}
		}
	}
	return nil
}

// Put parks v in an empty slot, if there is one.
func (l *FreeList[T]) Put(v *T) {
	for i := range l.slots {
		if l.slots[i].Load() == nil && l.slots[i].CompareAndSwap(nil, v) {
			return
		}
	}
}

// Buffer is a reusable frame buffer. B is the caller's to append to
// between GetBuffer and Release.
type Buffer struct {
	B []byte
}

var buffers FreeList[Buffer]

// GetBuffer checks a buffer out of the pool; B has length zero.
func GetBuffer() *Buffer {
	if b := buffers.Get(); b != nil {
		return b
	}
	return &Buffer{B: make([]byte, 0, bufferCap)}
}

// Release returns the buffer to the pool. The caller must not touch b or
// any slice of b.B afterwards.
func (b *Buffer) Release() {
	if cap(b.B) > maxPooledBufferCap {
		return
	}
	b.B = b.B[:0]
	buffers.Put(b)
}
