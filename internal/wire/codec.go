// Frame reader for the binary wire codec of binary.go. Every frame starts
// with the 8-byte header — 'G' 'C' magic, version and type bytes, and a
// little-endian body length — followed by an explicit per-field binary
// body; coalesced container frames let one TCP write carry several small
// control messages.
//
// The header is checked before anything else: a frame without the magic
// (for instance one from a peer still speaking the retired gob wire version
// 1, whose 4-byte big-endian length prefix always starts 0x00) fails with
// ErrBadMagic, and a length above MaxFrameSize fails with ErrFrameTooLarge,
// both BEFORE any body allocation. The body is fully read before the decoder
// sees it, so a truncated, malformed, or hostile frame errors out cheaply
// and deterministically (FuzzDecodeMessage holds the reader to that).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds one encoded frame body (4 MiB). Payloads are
// application-bounded well below this; anything larger is a protocol error,
// not a bigger buffer.
const MaxFrameSize = 4 << 20

// Framing errors. Each poisons the stream (the peer is not speaking this
// protocol); callers should drop the connection.
var (
	// ErrBadMagic reports a frame that does not start with the 'G' 'C'
	// magic — including every frame of the retired gob wire version 1.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrFrameTooLarge reports a length above MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrFrameEmpty reports a zero-length frame, which no Message encodes to.
	ErrFrameEmpty = errors.New("wire: empty frame")
)

// FrameReader decodes binary frames from a byte stream, decoding in place
// with per-reader string interning. Coalesced container frames are unpacked
// and their sub-messages returned one ReadMessage at a time. Not safe for
// concurrent use.
type FrameReader struct {
	r      io.Reader
	frame  []byte // reusable frame body buffer
	hdr    [binHeaderLen]byte
	intern internTable

	// pending holds sub-messages already unpacked from a coalesced frame.
	pending []Message
}

// NewFrameReader returns a reader decoding frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadMessage reads and decodes the next message, unpacking coalesced
// container frames transparently. It returns io.EOF at a clean stream end,
// io.ErrUnexpectedEOF on a truncated frame, ErrBadMagic or ErrBadVersion on
// a foreign header, ErrFrameTooLarge on a hostile length, and a decode error
// when the frame bytes are not a valid Message. After any non-EOF error the
// stream position is undefined; drop the connection.
func (fr *FrameReader) ReadMessage(msg *Message) error {
	if len(fr.pending) > 0 {
		*msg = fr.pending[0]
		fr.pending = fr.pending[1:]
		return nil
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	if fr.hdr[0] != magic0 || fr.hdr[1] != magic1 {
		return fmt.Errorf("%w: % x", ErrBadMagic, fr.hdr[:2])
	}
	if fr.hdr[2] != VersionBinary {
		return fmt.Errorf("%w: %d", ErrBadVersion, fr.hdr[2])
	}
	typ := fr.hdr[3]
	size := binary.LittleEndian.Uint32(fr.hdr[4:])
	if size == 0 {
		return ErrFrameEmpty
	}
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if cap(fr.frame) < int(size) {
		fr.frame = make([]byte, size)
	}
	body := fr.frame[:size]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return io.ErrUnexpectedEOF
	}
	if typ == coalescedType {
		pending, err := decodeSubMessages(body, fr.pending[:0], &fr.intern)
		if err != nil {
			return err
		}
		*msg = pending[0]
		fr.pending = pending[1:]
		return nil
	}
	return decodeBody(body, typ, msg, &fr.intern)
}

// EncodeMessage renders one message as a standalone frame — the unit
// FuzzDecodeMessage round-trips and tests build corpora from.
func EncodeMessage(msg *Message) ([]byte, error) {
	return AppendMessage(nil, msg)
}

// DecodeMessage parses one standalone single-message frame. Any malformed,
// truncated, or oversized input returns an error — never a panic, and never
// an allocation beyond MaxFrameSize. Trailing bytes after the frame, or a
// multi-message coalesced frame, are a protocol error.
func DecodeMessage(data []byte) (Message, error) {
	msgs, err := DecodeFrames(data)
	if err != nil {
		return Message{}, err
	}
	if len(msgs) != 1 {
		return Message{}, fmt.Errorf("wire: %d messages in frame, want 1", len(msgs))
	}
	return msgs[0], nil
}

// DecodeFrames parses exactly one standalone frame and returns the messages
// it carries: one for a plain frame, one or more for a coalesced container.
// Trailing bytes after the frame are a protocol error. Like DecodeMessage it
// never panics and never allocates beyond the frame cap (the fuzz target's
// contract).
func DecodeFrames(data []byte) ([]Message, error) {
	rd := bytes.NewReader(data)
	fr := NewFrameReader(rd)
	var msg Message
	if err := fr.ReadMessage(&msg); err != nil {
		return nil, err
	}
	if rd.Len() > 0 {
		return nil, errors.New("wire: trailing bytes after frame")
	}
	return append([]Message{msg}, fr.pending...), nil
}
