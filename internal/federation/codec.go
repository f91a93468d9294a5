package federation

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// wireBuf is a pooled buffer for one message on the federation wire: a
// handoff frame being encoded, or a body being read before it is decoded.
// The encoder and the size-limited reader are bound to the buffer once, so a
// message costs neither.
type wireBuf struct {
	bytes.Buffer
	enc *json.Encoder // writes into the buffer
	lim io.LimitedReader
	// refs counts the holders of an outgoing frame; see frameBody.
	refs atomic.Int32
}

// wireBufKeep is the largest buffer the pool keeps; one that grew past it
// (a near-limit frame) is left to the collector.
const wireBufKeep = 64 << 10

var wireBufs = sync.Pool{New: func() any {
	b := new(wireBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

func getWireBuf() *wireBuf {
	b := wireBufs.Get().(*wireBuf)
	b.Reset()
	return b
}

func putWireBuf(b *wireBuf) {
	b.lim.R = nil
	if b.Cap() <= wireBufKeep {
		wireBufs.Put(b)
	}
}

// readLimited reads r to its end, or to limit bytes, into the buffer.
func (b *wireBuf) readLimited(r io.Reader, limit int64) error {
	b.lim = io.LimitedReader{R: r, N: limit}
	_, err := b.ReadFrom(&b.lim)
	return err
}

// decodeJSONBody reads at most limit bytes of body into a pooled buffer and
// unmarshals them into v — one JSON value, nothing but whitespace after it.
func decodeJSONBody(body io.Reader, limit int64, v any) error {
	b := getWireBuf()
	defer putWireBuf(b)
	if err := b.readLimited(body, limit); err != nil {
		return err
	}
	return json.Unmarshal(b.Bytes(), v)
}

// encodeHandoff renders h as a single wire frame in b. The payload is
// encoded once, straight behind the header; the header's length field and
// the CRC trailer, which need the finished payload, are filled in after.
func (b *wireBuf) encodeHandoff(h *Handoff) error {
	b.Reset()
	b.WriteString(frameMagic)
	b.WriteByte(Version)
	b.Write([]byte{0, 0, 0, 0}) // the length, patched below
	if err := b.enc.Encode(h); err != nil {
		return fmt.Errorf("federation: encode handoff: %w", err)
	}
	b.Truncate(b.Len() - 1) // Encode ends the value with a newline; a frame does not
	frame := b.Bytes()
	payload := frame[frameHeader:]
	binary.BigEndian.PutUint32(frame[frameHeader-4:], uint32(len(payload)))
	var crc [frameTrailer]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	b.Write(crc[:])
	return nil
}

// readHandoff reads one framed handoff from body through a pooled buffer;
// the decoded handoff copies what it keeps, so the buffer is free again
// before the job is even submitted.
func readHandoff(body io.Reader) (*Handoff, error) {
	b := getWireBuf()
	defer putWireBuf(b)
	if err := b.readLimited(body, maxFrameBytes+frameHeader+frameTrailer+1); err != nil {
		return nil, err
	}
	return DecodeHandoff(b.Bytes())
}

// newFrame encodes h into a pooled buffer and returns it holding one
// reference, the sender's, to be dropped with releaseFrame.
func newFrame(h *Handoff) (*wireBuf, error) {
	b := getWireBuf()
	if err := b.encodeHandoff(h); err != nil {
		putWireBuf(b)
		return nil, err
	}
	b.refs.Store(1)
	return b, nil
}

// EncodeHandoff renders one handoff as a single wire frame.
func EncodeHandoff(h *Handoff) ([]byte, error) {
	b := getWireBuf()
	defer putWireBuf(b)
	if err := b.encodeHandoff(h); err != nil {
		return nil, err
	}
	return bytes.Clone(b.Bytes()), nil
}

// frameBody is an HTTP request body over the frame in a pooled buffer. A
// transport may still be reading a request's body after Do has returned, and
// closes it — on whatever goroutine — when it will read no more; so the
// buffer may only go back to the pool when the sender and every body handed
// out over it (the first, and one per GetBody rewind) have let go. refs
// counts them.
type frameBody struct {
	bytes.Reader
	buf    *wireBuf
	closed atomic.Bool
}

// newFrameBody takes a reference on b for a new body over its bytes.
func newFrameBody(b *wireBuf) *frameBody {
	b.refs.Add(1)
	fb := &frameBody{buf: b}
	fb.Reset(b.Bytes())
	return fb
}

// Close drops the body's reference, once however often it is called.
func (fb *frameBody) Close() error {
	if !fb.closed.Swap(true) {
		releaseFrame(fb.buf)
	}
	return nil
}

// releaseFrame drops one reference; the last one out pools the buffer.
func releaseFrame(b *wireBuf) {
	if b.refs.Add(-1) == 0 {
		putWireBuf(b)
	}
}

// DecodeHandoff parses exactly one framed handoff. Trailing bytes after
// the frame are an error — a single-handoff body is a single frame.
func DecodeHandoff(b []byte) (*Handoff, error) {
	payload, rest, err := readFrame(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("federation: %d trailing bytes after handoff frame", len(rest))
	}
	var h Handoff
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("federation: bad handoff payload: %w", err)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &h, nil
}
