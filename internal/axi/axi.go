// Package axi implements an AXI-style on-chip communication protocol on top
// of the sim kernel: five-channel interfaces (AW/W/B for writes, AR/R for
// reads) in both full (burst-capable, 512-bit data) and Lite (32-bit)
// flavours, manager and subordinate engines, and a runtime protocol checker.
//
// AXI is the de facto communication mechanism between CPUs and FPGAs on the
// AWS F1 platform the Vidi paper targets; the ordering rules reproduced here
// (e.g. a write response B may only be issued after both the AW and W
// transactions complete, Fig 2 of the paper) are what make transaction
// ordering matter for record/replay.
package axi

import (
	"encoding/binary"
	"fmt"

	"vidi/internal/sim"
)

// Payload widths in bytes for the simulated channels.
const (
	LiteAWWidth = 4 // addr32
	LiteWWidth  = 5 // data32 + strb
	LiteBWidth  = 1 // resp
	LiteARWidth = 4 // addr32
	LiteRWidth  = 5 // data32 + resp

	FullAWWidth = 9  // addr64 + len (beats-1)
	FullWWidth  = 73 // data512 + strb64 + last
	FullBWidth  = 1  // resp
	FullARWidth = 9  // addr64 + len
	FullRWidth  = 66 // data512 + resp + last

	// FullDataBytes is the data width of a full AXI beat (512 bits).
	FullDataBytes = 64
)

// Resp codes.
const (
	RespOKAY   = 0
	RespSLVERR = 2
)

// Interface is a five-channel AXI interface. Direction semantics (which
// channels are inputs to the FPGA) depend on which side is the manager and
// are resolved by the shell when it declares the record/replay boundary.
type Interface struct {
	Name string
	Lite bool
	AW   *sim.Channel
	W    *sim.Channel
	B    *sim.Channel
	AR   *sim.Channel
	R    *sim.Channel
}

// WriteManagerDrives returns the signals the manager side of the write
// channels drives, for Sensitivity declarations.
func (i *Interface) WriteManagerDrives() []sim.Signal {
	return []sim.Signal{i.AW.Valid, i.AW.Data, i.W.Valid, i.W.Data, i.B.Ready}
}

// ReadManagerDrives returns the signals the manager side of the read
// channels drives.
func (i *Interface) ReadManagerDrives() []sim.Signal {
	return []sim.Signal{i.AR.Valid, i.AR.Data, i.R.Ready}
}

// SubordinateDrives returns the signals the subordinate side drives across
// all five channels.
func (i *Interface) SubordinateDrives() []sim.Signal {
	return []sim.Signal{i.AW.Ready, i.W.Ready, i.B.Valid, i.B.Data, i.AR.Ready, i.R.Valid, i.R.Data}
}

// NewLite creates an AXI-Lite interface named name.
func NewLite(s *sim.Simulator, name string) *Interface {
	return &Interface{
		Name: name, Lite: true,
		AW: s.NewChannel(name+".AW", LiteAWWidth),
		W:  s.NewChannel(name+".W", LiteWWidth),
		B:  s.NewChannel(name+".B", LiteBWidth),
		AR: s.NewChannel(name+".AR", LiteARWidth),
		R:  s.NewChannel(name+".R", LiteRWidth),
	}
}

// NewFull creates a full (burst-capable) AXI interface named name.
func NewFull(s *sim.Simulator, name string) *Interface {
	return &Interface{
		Name: name,
		AW:   s.NewChannel(name+".AW", FullAWWidth),
		W:    s.NewChannel(name+".W", FullWWidth),
		B:    s.NewChannel(name+".B", FullBWidth),
		AR:   s.NewChannel(name+".AR", FullARWidth),
		R:    s.NewChannel(name+".R", FullRWidth),
	}
}

// beatBytes returns the data bytes per beat: 4 for Lite, 64 for full.
func (i *Interface) beatBytes() int {
	if i.Lite {
		return 4
	}
	return FullDataBytes
}

// Channels returns the interface's channels in canonical order
// (AW, W, B, AR, R).
func (f *Interface) Channels() []*sim.Channel {
	return []*sim.Channel{f.AW, f.W, f.B, f.AR, f.R}
}

// A payload is a fixed-layout value. Encode writes it into b, which must
// hold at least the channel's width, and returns the encoded bytes
// b[:width], ready for Data.Set. Decode parses a channel's bytes into a
// value; neither allocates. Lite data lives in the first 4 bytes of Data.

// AWPayload is the payload of a write-address transaction.
type AWPayload struct {
	Addr uint64
	// Len is the number of data beats minus one (AXI encoding). Always 0
	// for Lite.
	Len uint8
}

// Encode serializes the payload for an interface of the given flavour.
func (p AWPayload) Encode(b []byte, lite bool) []byte { return encodeAddr(b, p.Addr, p.Len, lite) }

// DecodeAW parses a write-address payload.
func DecodeAW(b []byte, lite bool) AWPayload {
	addr, ln := decodeAddr(b, lite)
	return AWPayload{Addr: addr, Len: ln}
}

// WPayload is the payload of one write-data beat.
type WPayload struct {
	Data [FullDataBytes]byte
	Strb uint64 // byte-enable mask: bit i enables Data[i]
	Last bool   // final beat of the burst (always set for Lite)
}

// Encode serializes the beat.
func (p WPayload) Encode(b []byte, lite bool) []byte {
	if lite {
		copy(b, p.Data[:4])
		b[4] = byte(p.Strb & 0xf)
		return b[:LiteWWidth]
	}
	copy(b, p.Data[:])
	binary.LittleEndian.PutUint64(b[FullDataBytes:], p.Strb)
	b[72] = boolByte(p.Last)
	return b[:FullWWidth]
}

// DecodeW parses a write-data beat.
func DecodeW(b []byte, lite bool) WPayload {
	var p WPayload
	if lite {
		copy(p.Data[:], b[:4])
		p.Strb, p.Last = uint64(b[4]&0xf), true
		return p
	}
	copy(p.Data[:], b[:FullDataBytes])
	p.Strb, p.Last = binary.LittleEndian.Uint64(b[FullDataBytes:]), b[72] != 0
	return p
}

// BPayload is the payload of a write response.
type BPayload struct{ Resp uint8 }

// Encode serializes the response.
func (p BPayload) Encode(b []byte) []byte {
	b[0] = p.Resp
	return b[:FullBWidth]
}

// DecodeB parses a write response.
func DecodeB(b []byte) BPayload { return BPayload{Resp: b[0]} }

// ARPayload is the payload of a read-address transaction.
type ARPayload struct {
	Addr uint64
	Len  uint8
}

// Encode serializes the payload.
func (p ARPayload) Encode(b []byte, lite bool) []byte { return encodeAddr(b, p.Addr, p.Len, lite) }

// DecodeAR parses a read-address payload.
func DecodeAR(b []byte, lite bool) ARPayload {
	addr, ln := decodeAddr(b, lite)
	return ARPayload{Addr: addr, Len: ln}
}

// RPayload is the payload of one read-data beat.
type RPayload struct {
	Data [FullDataBytes]byte
	Resp uint8
	Last bool // final beat of the burst (always set for Lite)
}

// Encode serializes the beat.
func (p RPayload) Encode(b []byte, lite bool) []byte {
	if lite {
		copy(b, p.Data[:4])
		b[4] = p.Resp
		return b[:LiteRWidth]
	}
	copy(b, p.Data[:])
	b[FullDataBytes] = p.Resp
	b[FullDataBytes+1] = boolByte(p.Last)
	return b[:FullRWidth]
}

// DecodeR parses a read-data beat.
func DecodeR(b []byte, lite bool) RPayload {
	var p RPayload
	if lite {
		copy(p.Data[:], b[:4])
		p.Resp, p.Last = b[4], true
		return p
	}
	copy(p.Data[:], b[:FullDataBytes])
	p.Resp, p.Last = b[FullDataBytes], b[FullDataBytes+1] != 0
	return p
}

// encodeAddr and decodeAddr share the AW and AR layout: a 32-bit address
// (Lite), or a 64-bit address and the burst length.
func encodeAddr(b []byte, addr uint64, ln uint8, lite bool) []byte {
	if lite {
		binary.LittleEndian.PutUint32(b, uint32(addr))
		return b[:LiteAWWidth]
	}
	binary.LittleEndian.PutUint64(b, addr)
	b[8] = ln
	return b[:FullAWWidth]
}

func decodeAddr(b []byte, lite bool) (uint64, uint8) {
	if lite {
		return uint64(binary.LittleEndian.Uint32(b)), 0
	}
	return binary.LittleEndian.Uint64(b), b[8]
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Mem is the byte-addressable backing store used by subordinate engines.
type Mem interface {
	ReadAt(addr uint64, p []byte) error
	WriteAt(addr uint64, p []byte) error
	Size() uint64
}

// memPageShift sets Memory's page size: 4 KiB.
const (
	memPageShift = 12
	memPageSize  = 1 << memPageShift
)

// Memory is a sparse, fixed-size in-process Mem: a table of 4 KiB page
// pointers, each page allocated by the first write that touches it. A byte
// never written reads as zero. The simulated DRAMs are mostly untouched, so
// a Memory costs its page table plus the pages a run actually writes.
type Memory struct {
	size  uint64
	pages []*[memPageSize]byte
}

// NewMemory returns a zeroed Memory of size bytes.
func NewMemory(size uint64) *Memory {
	return &Memory{size: size, pages: make([]*[memPageSize]byte, (size+memPageSize-1)>>memPageShift)}
}

// Size implements Mem.
func (m *Memory) Size() uint64 { return m.size }

// inRange reports whether [addr, addr+n) lies inside the memory.
func (m *Memory) inRange(addr uint64, n int) bool {
	return addr <= m.size && uint64(n) <= m.size-addr
}

// ReadAt implements Mem. An out-of-range read fills nothing.
func (m *Memory) ReadAt(addr uint64, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("axi: read [%#x,%#x) out of range (size %#x)", addr, addr+uint64(len(p)), m.size)
	}
	for len(p) > 0 {
		off := int(addr & (memPageSize - 1))
		n := min(len(p), memPageSize-off)
		if pg := m.pages[addr>>memPageShift]; pg != nil {
			copy(p[:n], pg[off:])
		} else {
			clear(p[:n])
		}
		p, addr = p[n:], addr+uint64(n)
	}
	return nil
}

// WriteAt implements Mem. An out-of-range write changes nothing.
func (m *Memory) WriteAt(addr uint64, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return fmt.Errorf("axi: write [%#x,%#x) out of range (size %#x)", addr, addr+uint64(len(p)), m.size)
	}
	for len(p) > 0 {
		off := int(addr & (memPageSize - 1))
		pg := m.pages[addr>>memPageShift]
		if pg == nil {
			pg = new([memPageSize]byte)
			m.pages[addr>>memPageShift] = pg
		}
		n := copy(pg[off:], p)
		p, addr = p[n:], addr+uint64(n)
	}
	return nil
}

// Read returns a copy of the n bytes at addr. It panics if they do not lie
// inside the memory.
func (m *Memory) Read(addr uint64, n int) []byte {
	p := make([]byte, n)
	if err := m.ReadAt(addr, p); err != nil {
		panic(err)
	}
	return p
}

// Write stores p at addr. It panics if p does not fit inside the memory.
func (m *Memory) Write(addr uint64, p []byte) {
	if err := m.WriteAt(addr, p); err != nil {
		panic(err)
	}
}
