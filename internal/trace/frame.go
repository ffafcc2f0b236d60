package trace

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt is the sentinel for detected trace corruption: a CRC mismatch,
// a broken storage-frame sequence, a truncated stream, or any other decode
// failure. Decoders never return a structurally wrong trace — every
// corruption either round-trips cleanly (impossible for a CRC-protected
// region) or surfaces as an error wrapping this sentinel.
var ErrCorrupt = errors.New("trace: corrupt")

// CorruptError describes where corruption was detected.
type CorruptError struct {
	// Site names the damaged region, e.g. "header", "packet 12", "frame 3".
	Site string
	// Detail explains what check failed.
	Detail string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt %s: %s", e.Site, e.Detail)
}

// Unwrap keeps errors.Is(err, ErrCorrupt) working.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// corruptf builds a CorruptError.
func corruptf(site, format string, args ...any) error {
	return &CorruptError{Site: site, Detail: fmt.Sprintf(format, args...)}
}

// Storage-interface framing (§3.3 hardened): the trace byte stream moved
// between the FPGA and external storage is carried in fixed 64-byte frames,
// each protected by a sequence number and a CRC-32 so the receiving side
// detects per-packet corruption, reordering and loss instead of mis-decoding
// a damaged stream. Frame layout:
//
//	seq u32 | used u16 | crc u32 | payload [StoragePacketSize-10]byte
//
// The CRC covers seq, used and the full payload (padding included), so any
// single-byte damage anywhere in the frame is caught.
const (
	frameHeaderSize = 10
	// FramePayloadSize is the trace bytes carried per storage frame.
	FramePayloadSize = StoragePacketSize - frameHeaderSize
)

// frameCRC hashes a frame with its CRC field treated as absent.
func frameCRC(f *[StoragePacketSize]byte) uint32 {
	crc := crc32.ChecksumIEEE(f[0:6])
	return crc32.Update(crc, crc32.IEEETable, f[frameHeaderSize:])
}

// FrameStream splits a trace byte stream into CRC-protected, sequence-
// numbered storage frames.
func FrameStream(body []byte) [][StoragePacketSize]byte {
	n := (len(body) + FramePayloadSize - 1) / FramePayloadSize
	out := make([][StoragePacketSize]byte, n)
	for i := 0; i < n; i++ {
		chunk := body[i*FramePayloadSize:]
		if len(chunk) > FramePayloadSize {
			chunk = chunk[:FramePayloadSize]
		}
		f := &out[i]
		putU32(f[0:4], uint32(i))
		putU16(f[4:6], uint16(len(chunk)))
		copy(f[frameHeaderSize:], chunk)
		putU32(f[6:10], frameCRC(f))
	}
	return out
}

// CheckFrame verifies one storage frame in isolation — CRC over header and
// payload, plausible payload length — and returns its sequence number and
// payload size. site names the frame in the typed *CorruptError (e.g.
// "frame 12"). Sequence continuity is the caller's concern: a streaming
// receiver (vidi-serve ingest) checks each arriving frame against its own
// expected sequence, while DeframeStream checks a complete stream.
func CheckFrame(site string, f *[StoragePacketSize]byte) (seq uint32, used int, err error) {
	seq, used, err = checkFrame(f)
	if err != nil {
		return 0, 0, &CorruptError{Site: site, Detail: err.Error()}
	}
	return seq, used, nil
}

// checkFrame is CheckFrame without a site: its error is the bare detail.
func checkFrame(f *[StoragePacketSize]byte) (seq uint32, used int, err error) {
	if got, want := frameCRC(f), getU32(f[6:10]); got != want {
		return 0, 0, fmt.Errorf("CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	used = int(getU16(f[4:6]))
	if used > FramePayloadSize {
		return 0, 0, fmt.Errorf("implausible payload length %d", used)
	}
	return getU32(f[0:4]), used, nil
}

// FramePayload returns the used payload bytes of a verified frame. The
// slice aliases the frame array.
func FramePayload(f *[StoragePacketSize]byte, used int) []byte {
	return f[frameHeaderSize : frameHeaderSize+used]
}

// DeframeStream reassembles a trace byte stream from storage frames,
// verifying per-frame CRCs and sequence continuity. Corruption, reordering
// and mid-stream loss all yield a typed *CorruptError.
func DeframeStream(frames [][StoragePacketSize]byte) ([]byte, error) {
	var d Deframer
	out := make([]byte, 0, len(frames)*FramePayloadSize)
	for i := range frames {
		var err error
		if out, err = d.Append(out, &frames[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Deframer is DeframeStream one frame at a time, for frames that are not
// held in one slice: it makes the same checks and reports the same first
// error. The zero value expects frame 0.
type Deframer struct {
	seq   uint32 // sequence number the next frame must carry
	short bool   // the previous frame was short, so it had to be the last
	used  int    // the previous frame's payload size
}

// Append verifies f as the stream's next frame and appends its payload to
// dst.
func (d *Deframer) Append(dst []byte, f *[StoragePacketSize]byte) ([]byte, error) {
	i := int(d.seq)
	if d.short {
		return dst, frameErr(i-1, "short frame mid-stream (%d bytes)", d.used)
	}
	seq, used, err := checkFrame(f)
	switch {
	case err != nil:
		return dst, frameErr(i, "%v", err)
	case seq != d.seq:
		return dst, frameErr(i, "sequence %d (frame lost or reordered)", seq)
	}
	d.seq++
	d.short, d.used = used != FramePayloadSize, used
	return append(dst, FramePayload(f, used)...), nil
}

// frameErr reports damage to frame i; the site string is built only here,
// on the error path.
func frameErr(i int, format string, args ...any) error {
	return corruptf(fmt.Sprintf("frame %d", i), format, args...)
}

// Frames serializes the trace and wraps it in storage frames — the
// resilient transport representation.
func (t *Trace) Frames() [][StoragePacketSize]byte { return FrameStream(t.Bytes()) }

// FromFrames deframes and decodes a trace carried in storage frames.
func FromFrames(frames [][StoragePacketSize]byte) (*Trace, error) {
	body, err := DeframeStream(frames)
	if err != nil {
		return nil, err
	}
	return FromBytes(body)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU16(b []byte, v uint16) {
	b[0], b[1] = byte(v), byte(v>>8)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}
