package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary trace file layout (version 2):
//
//	magic "VIDT"
//	version u16, flags u16 (bit0 = ValidateOutputs)
//	numChannels u32
//	per channel: nameLen u16, name, ifaceLen u16, iface, width u32, dir u8
//	headerCRC u32   — CRC-32 of everything after the magic up to here
//	numPackets u64, countCRC u32
//	per packet: pktFlags u8 (bit0 = lossy) | Starts bytes | Ends bytes |
//	            contents (fixed widths, in order) | pktCRC u32
//
// Content lengths are implied by the channel widths recorded in the header,
// exactly as in hardware where each channel's DATA bus has a fixed width.
// Every region is CRC-protected, so a flipped byte anywhere surfaces as a
// typed *CorruptError instead of a silently wrong decode. Only this version
// is read: version 1 had no flags byte and no CRCs, so a header with no
// channels could claim 2^64 packets of zero bytes each.

const (
	magic   = "VIDT"
	version = 2
)

// Per-packet flag bits.
const pktFlagLossy = 1 << 0

// WriteTo serializes the trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	b, err := t.encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadFrom reads a serialized trace from r to its end and decodes it. Any
// damage — bad magic, CRC mismatch, truncation, trailing bytes — yields an
// error wrapping ErrCorrupt.
func ReadFrom(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, corruptf("stream", "reading: %v", err)
	}
	return FromBytes(b)
}

// Bytes serializes the trace to a byte slice.
func (t *Trace) Bytes() []byte {
	b, err := t.encode()
	if err != nil {
		panic(err)
	}
	return b
}

// encode serializes the trace into one buffer of exactly its encoded size.
func (t *Trace) encode() ([]byte, error) {
	m := t.Meta
	size := len(magic) + 2 + 2 + 4 + 4 + 8 + 4 + t.Len()*(1+m.headerBytes()+4) + len(t.body)
	for _, c := range m.Channels {
		if len(c.Name) > math.MaxUint16 || len(c.Interface) > math.MaxUint16 {
			return nil, fmt.Errorf("trace: channel %q: string too long", c.Name)
		}
		size += 2 + len(c.Name) + 2 + len(c.Interface) + 4 + 1
	}
	b := make([]byte, 0, size)
	b = append(b, magic...)
	flags := uint16(0)
	if m.ValidateOutputs {
		flags |= 1
	}
	b = binary.LittleEndian.AppendUint16(b, version)
	b = binary.LittleEndian.AppendUint16(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Channels)))
	for _, c := range m.Channels {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Name)))
		b = append(b, c.Name...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Interface)))
		b = append(b, c.Interface...)
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Width))
		b = append(b, uint8(c.Dir))
	}
	b = appendCRC(b, len(magic))
	mark := len(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Len()))
	b = appendCRC(b, mark)
	sb, eb := ByteLen(m.NumInputs()), ByteLen(m.NumChannels())
	for i := 0; i < t.Len(); i++ {
		mark = len(b)
		flags := uint8(0)
		if t.isLossy(i) {
			flags |= pktFlagLossy
		}
		w := t.words(i)
		b = append(b, flags)
		b = appendBits(b, w[:m.startWords], sb)
		b = appendBits(b, w[m.startWords:], eb)
		b = append(b, t.body[t.bodyStart(i):t.ends[i]]...)
		b = appendCRC(b, mark)
	}
	return b, nil
}

// appendCRC appends the CRC-32 of b[from:].
func appendCRC(b []byte, from int) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[from:]))
}

// appendBits appends the first n bytes of words, least significant first:
// bit i of the vector is bit i%8 of byte i/8.
func appendBits(b []byte, words []uint64, n int) []byte {
	for j := 0; j < n; j++ {
		b = append(b, byte(words[j/8]>>(8*(j%8))))
	}
	return b
}

// loadBits is appendBits' inverse: it ORs the bytes of src into words.
func loadBits(words []uint64, src []byte) {
	for j, c := range src {
		words[j/8] |= uint64(c) << (8 * (j % 8))
	}
}

// padded reports whether the last byte of an n-bit vector's serialized form
// sets a bit past n.
func padded(field []byte, n int) bool {
	return n%8 != 0 && field[len(field)-1]>>(n%8) != 0
}

// FromBytes deserializes a trace from a byte slice: it checks every CRC and
// parses the packets straight into the trace's slabs.
func FromBytes(b []byte) (*Trace, error) {
	if len(b) < len(magic) {
		return nil, corruptf("magic", "reading: %v", io.ErrUnexpectedEOF)
	}
	if string(b[:len(magic)]) != magic {
		return nil, corruptf("magic", "bad magic %q", b[:len(magic)])
	}
	r := &byteReader{b: b, off: len(magic)}
	m, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if err := r.checkCRC("header", len(magic)); err != nil {
		return nil, err
	}
	mark := r.off
	count, ok := r.u64()
	if !ok {
		return nil, corruptf("packet count", "reading: %v", io.ErrUnexpectedEOF)
	}
	if err := r.checkCRC("packet count", mark); err != nil {
		return nil, err
	}

	nin, nch := m.NumInputs(), m.NumChannels()
	sb, eb := ByteLen(nin), ByteLen(nch)
	fixed := 1 + sb + eb
	// Presize the slabs for the packets the remaining bytes can hold, so a
	// damaged count cannot make the decoder allocate more than the input.
	rest := len(b) - r.off
	n := rest / (fixed + 4)
	if count < uint64(n) {
		n = int(count)
	}
	stride := m.stride()
	t := &Trace{
		Meta:  m,
		bits:  make([]uint64, 0, n*stride),
		body:  make([]byte, 0, max(rest-n*(fixed+4), 0)),
		ends:  make([]int, 0, n),
		lossy: make([]uint64, 0, (n+63)/64),
	}
	off := r.off
	for i := 0; uint64(i) < count; i++ {
		if len(b)-off < fixed {
			return nil, packetErr(i, "%v", io.ErrUnexpectedEOF)
		}
		flags := b[off]
		if flags&^uint8(pktFlagLossy) != 0 {
			return nil, packetErr(i, "unknown packet flags %#x", flags)
		}
		starts, ends := b[off+1:off+1+sb], b[off+1+sb:off+fixed]
		if padded(starts, nin) || padded(ends, nch) {
			return nil, packetErr(i, "bits set past %d inputs or %d channels", nin, nch)
		}
		lossy := flags&pktFlagLossy != 0
		t.bits = grow(t.bits, stride)
		w := t.bits[i*stride:]
		loadBits(w[:m.startWords], starts)
		loadBits(w[m.startWords:], ends)
		end := off + fixed + m.bodyLen(w, lossy)
		if len(b)-end < 4 {
			return nil, packetErr(i, "%v", io.ErrUnexpectedEOF)
		}
		if stored, computed := getU32(b[end:]), crc32.ChecksumIEEE(b[off:end]); stored != computed {
			return nil, packetErr(i, "CRC mismatch (stored %08x, computed %08x)", stored, computed)
		}
		t.body = append(t.body, b[off+fixed:end]...)
		t.ends = append(t.ends, len(t.body))
		if i%64 == 0 {
			t.lossy = append(t.lossy, 0)
		}
		if lossy {
			t.lossy[i/64] |= 1 << (uint(i) % 64)
		}
		off = end + 4
	}
	if off != len(b) {
		return nil, corruptf("trailer", "%d bytes after the last packet", len(b)-off)
	}
	return t, nil
}

// packetErr reports damage to packet i; the site string is built only here,
// on the error path.
func packetErr(i int, format string, args ...any) error {
	return corruptf(fmt.Sprintf("packet %d", i), format, args...)
}

// Save writes the trace to a file.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a trace from a file.
func Load(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromBytes(b)
}

// readHeader reads the post-magic header and returns the metadata.
func readHeader(r *byteReader) (*Meta, error) {
	ver, ok := r.u16()
	if !ok {
		return nil, corruptf("header", "reading version: %v", io.ErrUnexpectedEOF)
	}
	if ver != version {
		return nil, corruptf("header", "unsupported version %d", ver)
	}
	flags, ok := r.u16()
	if !ok {
		return nil, corruptf("header", "reading flags: %v", io.ErrUnexpectedEOF)
	}
	if flags&^1 != 0 {
		return nil, corruptf("header", "unknown flags %#x", flags)
	}
	nch, ok := r.u32()
	if !ok {
		return nil, corruptf("header", "reading channel count: %v", io.ErrUnexpectedEOF)
	}
	if nch > 1<<16 {
		return nil, corruptf("header", "implausible channel count %d", nch)
	}
	chans := make([]ChannelInfo, nch)
	for i := range chans {
		name, ok := r.str()
		if !ok {
			return nil, corruptf("header", "channel %d name: %v", i, io.ErrUnexpectedEOF)
		}
		iface, ok := r.str()
		if !ok {
			return nil, corruptf("header", "channel %q interface: %v", name, io.ErrUnexpectedEOF)
		}
		width, ok := r.u32()
		if !ok {
			return nil, corruptf("header", "channel %q width: %v", name, io.ErrUnexpectedEOF)
		}
		if width > 1<<20 {
			return nil, corruptf("header", "channel %q: implausible width %d", name, width)
		}
		dir, ok := r.bytes(1)
		if !ok {
			return nil, corruptf("header", "channel %q direction: %v", name, io.ErrUnexpectedEOF)
		}
		if dir[0] > 1 {
			return nil, corruptf("header", "channel %q: bad direction %d", name, dir[0])
		}
		chans[i] = ChannelInfo{Name: name, Interface: iface, Width: int(width), Dir: Direction(dir[0])}
	}
	return NewMeta(chans, flags&1 != 0), nil
}

// byteReader reads little-endian fields from a byte slice; each read
// reports false, consuming nothing, when too few bytes remain.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) bytes(n int) ([]byte, bool) {
	if len(r.b)-r.off < n {
		return nil, false
	}
	r.off += n
	return r.b[r.off-n : r.off], true
}

func (r *byteReader) u16() (uint16, bool) {
	b, ok := r.bytes(2)
	if !ok {
		return 0, false
	}
	return getU16(b), true
}

func (r *byteReader) u32() (uint32, bool) {
	b, ok := r.bytes(4)
	if !ok {
		return 0, false
	}
	return getU32(b), true
}

func (r *byteReader) u64() (uint64, bool) {
	b, ok := r.bytes(8)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

func (r *byteReader) str() (string, bool) {
	n, ok := r.u16()
	if !ok {
		return "", false
	}
	b, ok := r.bytes(int(n))
	return string(b), ok
}

// checkCRC reads a stored CRC-32 and compares it with the CRC of the bytes
// from offset from up to it.
func (r *byteReader) checkCRC(site string, from int) error {
	computed := crc32.ChecksumIEEE(r.b[from:r.off])
	stored, ok := r.u32()
	if !ok {
		return corruptf(site, "reading CRC: %v", io.ErrUnexpectedEOF)
	}
	if stored != computed {
		return corruptf(site, "CRC mismatch (stored %08x, computed %08x)", stored, computed)
	}
	return nil
}

// StoragePacketSize is the fixed size of the storage-interface packets the
// trace store exchanges with external storage (§3.3). The AWS F1 platform
// exposes CPU-side DRAM at 64-byte granularity.
const StoragePacketSize = 64
