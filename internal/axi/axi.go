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

// Channels returns the interface's channels in canonical order
// (AW, W, B, AR, R).
func (f *Interface) Channels() []*sim.Channel {
	return []*sim.Channel{f.AW, f.W, f.B, f.AR, f.R}
}

// AWPayload is the payload of a write-address transaction.
type AWPayload struct {
	Addr uint64
	// Len is the number of data beats minus one (AXI encoding). Always 0
	// for Lite.
	Len uint8
}

// Encode serializes the payload for an interface of the given flavour.
func (p AWPayload) Encode(lite bool) []byte {
	if lite {
		b := make([]byte, LiteAWWidth)
		binary.LittleEndian.PutUint32(b, uint32(p.Addr))
		return b
	}
	b := make([]byte, FullAWWidth)
	binary.LittleEndian.PutUint64(b, p.Addr)
	b[8] = p.Len
	return b
}

// DecodeAW parses a write-address payload.
func DecodeAW(b []byte, lite bool) AWPayload {
	if lite {
		return AWPayload{Addr: uint64(binary.LittleEndian.Uint32(b))}
	}
	return AWPayload{Addr: binary.LittleEndian.Uint64(b), Len: b[8]}
}

// WPayload is the payload of one write-data beat.
type WPayload struct {
	Data []byte // 4 bytes (Lite) or 64 bytes (full)
	Strb []byte // byte-enable mask, 1 bit per data byte
	Last bool   // final beat of the burst (full only)
}

// Encode serializes the beat.
func (p WPayload) Encode(lite bool) []byte {
	if lite {
		b := make([]byte, LiteWWidth)
		copy(b, p.Data)
		b[4] = strbByte(p.Strb, 4)
		return b
	}
	b := make([]byte, FullWWidth)
	copy(b, p.Data)
	copy(b[FullDataBytes:FullDataBytes+8], strbBytes(p.Strb, FullDataBytes))
	if p.Last {
		b[72] = 1
	}
	return b
}

// DecodeW parses a write-data beat.
func DecodeW(b []byte, lite bool) WPayload {
	if lite {
		return WPayload{Data: append([]byte(nil), b[:4]...), Strb: strbBits(b[4:5], 4), Last: true}
	}
	return WPayload{
		Data: append([]byte(nil), b[:FullDataBytes]...),
		Strb: strbBits(b[FullDataBytes:FullDataBytes+8], FullDataBytes),
		Last: b[72] != 0,
	}
}

// BPayload is the payload of a write response.
type BPayload struct{ Resp uint8 }

// Encode serializes the response.
func (p BPayload) Encode() []byte { return []byte{p.Resp} }

// DecodeB parses a write response.
func DecodeB(b []byte) BPayload { return BPayload{Resp: b[0]} }

// ARPayload is the payload of a read-address transaction.
type ARPayload struct {
	Addr uint64
	Len  uint8
}

// Encode serializes the payload.
func (p ARPayload) Encode(lite bool) []byte {
	if lite {
		b := make([]byte, LiteARWidth)
		binary.LittleEndian.PutUint32(b, uint32(p.Addr))
		return b
	}
	b := make([]byte, FullARWidth)
	binary.LittleEndian.PutUint64(b, p.Addr)
	b[8] = p.Len
	return b
}

// DecodeAR parses a read-address payload.
func DecodeAR(b []byte, lite bool) ARPayload {
	if lite {
		return ARPayload{Addr: uint64(binary.LittleEndian.Uint32(b))}
	}
	return ARPayload{Addr: binary.LittleEndian.Uint64(b), Len: b[8]}
}

// RPayload is the payload of one read-data beat.
type RPayload struct {
	Data []byte
	Resp uint8
	Last bool
}

// Encode serializes the beat.
func (p RPayload) Encode(lite bool) []byte {
	if lite {
		b := make([]byte, LiteRWidth)
		copy(b, p.Data)
		b[4] = p.Resp
		return b
	}
	b := make([]byte, FullRWidth)
	copy(b, p.Data)
	b[FullDataBytes] = p.Resp
	if p.Last {
		b[FullDataBytes+1] = 1
	}
	return b
}

// DecodeR parses a read-data beat.
func DecodeR(b []byte, lite bool) RPayload {
	if lite {
		return RPayload{Data: append([]byte(nil), b[:4]...), Resp: b[4], Last: true}
	}
	return RPayload{
		Data: append([]byte(nil), b[:FullDataBytes]...),
		Resp: b[FullDataBytes],
		Last: b[FullDataBytes+1] != 0,
	}
}

// strbBytes packs per-byte enables (one byte per data byte, 0/1) into a
// bitmask of n/8 bytes.
func strbBytes(strb []byte, n int) []byte {
	out := make([]byte, (n+7)/8)
	for i := 0; i < n && i < len(strb); i++ {
		if strb[i] != 0 {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

func strbByte(strb []byte, n int) byte {
	return strbBytes(strb, n)[0]
}

// strbBits unpacks a bitmask into per-byte enables.
func strbBits(mask []byte, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		if mask[i/8]&(1<<(uint(i)%8)) != 0 {
			out[i] = 1
		}
	}
	return out
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
