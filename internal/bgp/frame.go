package bgp

import (
	"encoding/binary"
	"io"
)

// frameReader cuts a byte stream into BGP messages through one reusable
// buffer: a Read takes whatever the transport has ready, and every
// complete frame it delivered is yielded before the transport is asked
// again — no allocation and, for back-to-back messages, no transport
// call per message. The buffer holds exactly one maximum-size message,
// so a partial frame always fits once moved to the front; it is kept at
// that size rather than a larger read-ahead because every session end
// owns one for life.
//
// A yielded body aliases the buffer and is valid only until the next
// call: the message decoders copy everything they keep.
//
// Every UPDATE decodes into the one Update the reader owns, so a
// session's receive path allocates nothing per message but the
// attribute set it hands over. The yielded Update and its lists are
// lent: valid until the next call, which overwrites them.
type frameReader struct {
	r    io.Reader
	buf  [MaxMessageLen]byte
	off  int // start of the unread bytes
	fill int // end of the bytes read so far

	// update is the Update every UPDATE decodes into. lists backs its
	// Withdrawn, NLRI, MPReach and MPUnreach, in that order, at the
	// largest size a message has needed so far: at most what one
	// MaxMessageLen message carries.
	update Update
	lists  [4][]NLRI
}

// next returns the type and body of the next message. A stream that
// ends on a frame boundary yields io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF.
func (f *frameReader) next() (typ uint8, body []byte, err error) {
	for {
		if have := f.fill - f.off; have >= HeaderLen {
			hdr := f.buf[f.off:f.fill]
			if [16]byte(hdr[:16]) != marker {
				return 0, nil, notif(ErrCodeHeader, 1)
			}
			length := int(binary.BigEndian.Uint16(hdr[16:18]))
			if length < HeaderLen || length > MaxMessageLen {
				return 0, nil, notif(ErrCodeHeader, ErrSubBadLength)
			}
			if have >= length {
				f.off += length
				return hdr[18], hdr[HeaderLen:length], nil
			}
		}
		if f.off > 0 {
			f.fill = copy(f.buf[:], f.buf[f.off:f.fill])
			f.off = 0
		}
		n, err := f.r.Read(f.buf[f.fill:])
		f.fill += n
		if n == 0 && err != nil {
			if err == io.EOF && f.fill > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
}

// readMessage reads and decodes the next message. An UPDATE is lent
// (see frameReader).
func (f *frameReader) readMessage(opts *codecOpts) (Message, error) {
	typ, body, err := f.next()
	if err != nil {
		return nil, err
	}
	u := &f.update
	u.Withdrawn, u.NLRI, u.MPReach, u.MPUnreach = f.lists[0], f.lists[1], f.lists[2], f.lists[3]
	msg, err := decodeBody(typ, body, opts, u)
	for i, l := range [...][]NLRI{u.Withdrawn, u.NLRI, u.MPReach, u.MPUnreach} {
		if cap(l) > cap(f.lists[i]) {
			f.lists[i] = l
		}
	}
	return msg, err
}
