package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
	bw := bufio.NewWriter(w)
	n := &countingWriter{w: bw}
	if _, err := n.Write([]byte(magic)); err != nil {
		return n.n, err
	}
	cw := &crcWriter{w: n}
	if err := writeHeader(cw, t.Meta); err != nil {
		return n.n, err
	}
	if err := cw.emitCRC(); err != nil {
		return n.n, err
	}
	cw.reset()
	if err := binary.Write(cw, binary.LittleEndian, uint64(len(t.Packets))); err != nil {
		return n.n, err
	}
	if err := cw.emitCRC(); err != nil {
		return n.n, err
	}
	for _, p := range t.Packets {
		cw.reset()
		if err := writePacket(cw, t.Meta, p); err != nil {
			return n.n, err
		}
		if err := cw.emitCRC(); err != nil {
			return n.n, err
		}
	}
	return n.n, bw.Flush()
}

// ReadFrom deserializes a trace. Any damage — bad magic, CRC mismatch,
// truncation — yields an error wrapping ErrCorrupt.
func ReadFrom(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, corruptf("magic", "reading: %v", err)
	}
	if string(mg[:]) != magic {
		return nil, corruptf("magic", "bad magic %q", mg)
	}
	cr := &crcReader{r: br}
	m, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	if err := cr.checkCRC("header"); err != nil {
		return nil, err
	}
	cr.reset()
	var count uint64
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return nil, corruptf("packet count", "reading: %v", err)
	}
	if err := cr.checkCRC("packet count"); err != nil {
		return nil, err
	}
	t := NewTrace(m)
	for i := uint64(0); i < count; i++ {
		site := fmt.Sprintf("packet %d", i)
		cr.reset()
		p, err := readPacket(cr, m)
		if err != nil {
			return nil, corruptf(site, "%v", err)
		}
		if err := cr.checkCRC(site); err != nil {
			return nil, err
		}
		t.Append(p)
	}
	return t, nil
}

// Bytes serializes the trace to a byte slice.
func (t *Trace) Bytes() []byte {
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// FromBytes deserializes a trace from a byte slice.
func FromBytes(b []byte) (*Trace, error) { return ReadFrom(bytes.NewReader(b)) }

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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}

// writeHeader writes everything after the magic up to the header CRC.
func writeHeader(w io.Writer, m *Meta) error {
	flags := uint16(0)
	if m.ValidateOutputs {
		flags |= 1
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(version)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(m.Channels))); err != nil {
		return err
	}
	for _, c := range m.Channels {
		if err := writeString(w, c.Name); err != nil {
			return err
		}
		if err := writeString(w, c.Interface); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(c.Width)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint8(c.Dir)); err != nil {
			return err
		}
	}
	return nil
}

// readHeader reads the post-magic header and returns the metadata.
func readHeader(r io.Reader) (*Meta, error) {
	var ver, flags uint16
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return nil, corruptf("header", "reading version: %v", err)
	}
	if ver != version {
		return nil, corruptf("header", "unsupported version %d", ver)
	}
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return nil, corruptf("header", "reading flags: %v", err)
	}
	var nch uint32
	if err := binary.Read(r, binary.LittleEndian, &nch); err != nil {
		return nil, corruptf("header", "reading channel count: %v", err)
	}
	if nch > 1<<16 {
		return nil, corruptf("header", "implausible channel count %d", nch)
	}
	chans := make([]ChannelInfo, nch)
	for i := range chans {
		name, err := readString(r)
		if err != nil {
			return nil, corruptf("header", "channel %d name: %v", i, err)
		}
		iface, err := readString(r)
		if err != nil {
			return nil, corruptf("header", "channel %q interface: %v", name, err)
		}
		var width uint32
		if err := binary.Read(r, binary.LittleEndian, &width); err != nil {
			return nil, corruptf("header", "channel %q width: %v", name, err)
		}
		if width > 1<<20 {
			return nil, corruptf("header", "channel %q: implausible width %d", name, width)
		}
		var dir uint8
		if err := binary.Read(r, binary.LittleEndian, &dir); err != nil {
			return nil, corruptf("header", "channel %q direction: %v", name, err)
		}
		if dir > 1 {
			return nil, corruptf("header", "channel %q: bad direction %d", name, dir)
		}
		chans[i] = ChannelInfo{Name: name, Interface: iface, Width: int(width), Dir: Direction(dir)}
	}
	return NewMeta(chans, flags&1 != 0), nil
}

func writePacket(w io.Writer, m *Meta, p CyclePacket) error {
	flags := uint8(0)
	if p.Lossy {
		flags |= pktFlagLossy
	}
	if _, err := w.Write([]byte{flags}); err != nil {
		return err
	}
	if _, err := w.Write(p.Starts.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(p.Ends.Bytes()); err != nil {
		return err
	}
	for _, c := range p.Contents {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	return nil
}

func readPacket(r io.Reader, m *Meta) (CyclePacket, error) {
	var fb [1]byte
	if _, err := io.ReadFull(r, fb[:]); err != nil {
		return CyclePacket{}, err
	}
	flags := fb[0]
	if flags&^uint8(pktFlagLossy) != 0 {
		return CyclePacket{}, fmt.Errorf("unknown packet flags %#x", flags)
	}
	sb := make([]byte, ByteLen(m.NumInputs()))
	if _, err := io.ReadFull(r, sb); err != nil {
		return CyclePacket{}, err
	}
	eb := make([]byte, ByteLen(m.NumChannels()))
	if _, err := io.ReadFull(r, eb); err != nil {
		return CyclePacket{}, err
	}
	starts, err := BitVecFromBytes(m.NumInputs(), sb)
	if err != nil {
		return CyclePacket{}, err
	}
	ends, err := BitVecFromBytes(m.NumChannels(), eb)
	if err != nil {
		return CyclePacket{}, err
	}
	p := CyclePacket{Starts: starts, Ends: ends, Lossy: flags&pktFlagLossy != 0}
	for ii, ci := range m.InputChannels() {
		if starts.Get(ii) {
			c := make([]byte, m.Channels[ci].Width)
			if _, err := io.ReadFull(r, c); err != nil {
				return CyclePacket{}, err
			}
			p.Contents = append(p.Contents, c)
		}
	}
	if m.ValidateOutputs && !p.Lossy {
		for _, ci := range m.OutputChannels() {
			if ends.Get(ci) {
				c := make([]byte, m.Channels[ci].Width)
				if _, err := io.ReadFull(r, c); err != nil {
					return CyclePacket{}, err
				}
				p.Contents = append(p.Contents, c)
			}
		}
	}
	return p, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 1<<15 {
		return fmt.Errorf("trace: string too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// crcWriter hashes every byte written through it; emitCRC appends the
// running CRC-32 to the underlying stream (outside the hash).
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcWriter) reset() { c.crc = 0 }

func (c *crcWriter) emitCRC() error {
	var b [4]byte
	putU32(b[:], c.crc)
	_, err := c.w.Write(b[:])
	return err
}

// crcReader hashes every byte read through it; checkCRC reads the stored
// CRC-32 from the underlying stream (outside the hash) and compares.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcReader) reset() { c.crc = 0 }

func (c *crcReader) checkCRC(site string) error {
	var b [4]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return corruptf(site, "reading CRC: %v", err)
	}
	if stored := getU32(b[:]); stored != c.crc {
		return corruptf(site, "CRC mismatch (stored %08x, computed %08x)", stored, c.crc)
	}
	return nil
}

// StoragePacketSize is the fixed size of the storage-interface packets the
// trace store exchanges with external storage (§3.3). The AWS F1 platform
// exposes CPU-side DRAM at 64-byte granularity.
const StoragePacketSize = 64

// PackStorage splits a byte stream into fixed-size storage-interface
// packets, padding the final packet with zeros. It returns the packets and
// the number of meaningful bytes (for unpadding). FrameStream/DeframeStream
// are the hardened equivalents carrying sequence numbers and CRCs.
func PackStorage(body []byte) ([][StoragePacketSize]byte, int) {
	n := (len(body) + StoragePacketSize - 1) / StoragePacketSize
	out := make([][StoragePacketSize]byte, n)
	for i := 0; i < n; i++ {
		copy(out[i][:], body[i*StoragePacketSize:])
	}
	return out, len(body)
}

// UnpackStorage reassembles a byte stream from storage packets.
func UnpackStorage(pkts [][StoragePacketSize]byte, length int) []byte {
	out := make([]byte, 0, len(pkts)*StoragePacketSize)
	for i := range pkts {
		out = append(out, pkts[i][:]...)
	}
	if length > len(out) {
		length = len(out)
	}
	return out[:length]
}
