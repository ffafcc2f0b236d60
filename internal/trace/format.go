package trace

import (
	"fmt"
	"math/bits"
)

// Direction classifies a channel relative to the FPGA program at the
// record/replay boundary.
type Direction int

const (
	// Input channels carry transactions from the environment to the FPGA
	// program (the FPGA is the receiver).
	Input Direction = iota
	// Output channels carry transactions from the FPGA program to the
	// environment (the FPGA is the sender).
	Output
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// ChannelInfo describes one monitored channel at the record/replay boundary.
type ChannelInfo struct {
	// Name is the fully qualified channel name, e.g. "pcis.W".
	Name string
	// Interface is the AXI interface the channel belongs to, e.g. "pcis".
	Interface string
	// Width is the payload width in bytes. Contents in the trace have this
	// fixed size, so no per-content length is stored.
	Width int
	// Dir is the channel's direction at the boundary.
	Dir Direction
}

// Meta describes the shape of a trace: the monitored channels (in monitor
// index order) and the recording configuration.
type Meta struct {
	Channels []ChannelInfo
	// ValidateOutputs records the content of each completed output
	// transaction in addition to its end event, enabling divergence
	// detection (§3.6). Configurations R2 and R3 of the paper set this.
	ValidateOutputs bool

	inputIdx  []int // channel index per input index
	outputIdx []int // channel index per output index
	inputOf   []int // input index per channel, -1 for an output

	// startWidth[ii] is the content width of input ii's start event;
	// endWidth[ci] is the content width a non-lossy packet records with
	// channel ci's end event, 0 where it records none.
	startWidth []int
	endWidth   []int

	// Words per packet of the Starts and of the Ends bit vector.
	startWords, endWords int
}

// NewMeta builds a Meta and its input/output index maps.
func NewMeta(chans []ChannelInfo, validateOutputs bool) *Meta {
	m := &Meta{Channels: chans, ValidateOutputs: validateOutputs}
	m.buildIndex()
	return m
}

func (m *Meta) buildIndex() {
	m.inputIdx, m.outputIdx, m.startWidth = nil, nil, nil
	m.inputOf = make([]int, len(m.Channels))
	m.endWidth = make([]int, len(m.Channels))
	for i, c := range m.Channels {
		if c.Dir == Input {
			m.inputOf[i] = len(m.inputIdx)
			m.inputIdx = append(m.inputIdx, i)
			m.startWidth = append(m.startWidth, c.Width)
		} else {
			m.inputOf[i] = -1
			m.outputIdx = append(m.outputIdx, i)
			if m.ValidateOutputs {
				m.endWidth[i] = c.Width
			}
		}
	}
	m.startWords, m.endWords = (len(m.inputIdx)+63)/64, (len(m.Channels)+63)/64
}

// NumChannels returns the total number of monitored channels.
func (m *Meta) NumChannels() int { return len(m.Channels) }

// NumInputs returns the number of input channels.
func (m *Meta) NumInputs() int { return len(m.inputIdx) }

// InputChannels returns the channel indices of the input channels, in input
// index order (the order of bits in a cycle packet's Starts field).
func (m *Meta) InputChannels() []int { return m.inputIdx }

// OutputChannels returns the channel indices of the output channels.
func (m *Meta) OutputChannels() []int { return m.outputIdx }

// InputIndex returns the input index of channel ch, or -1 if ch is not an
// input channel.
func (m *Meta) InputIndex(ch int) int {
	if ch < 0 || ch >= len(m.inputOf) {
		return -1
	}
	return m.inputOf[ch]
}

// ChannelByName returns the index of the named channel, or -1.
func (m *Meta) ChannelByName(name string) int {
	for i, c := range m.Channels {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// stride is the number of bit-slab words per cycle packet.
func (m *Meta) stride() int { return m.startWords + m.endWords }

// headerBytes is the serialized size of a packet's Starts and Ends fields.
func (m *Meta) headerBytes() int { return ByteLen(m.NumInputs()) + ByteLen(m.NumChannels()) }

// bodyLen is the content size of a packet with event bits w: the widths of
// its starts, then, unless the packet is lossy, of its recorded ends.
func (m *Meta) bodyLen(w []uint64, lossy bool) int {
	n := widthBelow(w[:m.startWords], len(m.startWidth), m.startWidth)
	if !lossy {
		n += widthBelow(w[m.startWords:], len(m.endWidth), m.endWidth)
	}
	return n
}

// widthBelow sums width[i] over the bits i < n set in w.
func widthBelow(w []uint64, n int, width []int) int {
	sum := 0
	for wi, word := range w {
		for word != 0 {
			i := wi*64 + bits.TrailingZeros64(word)
			if i >= n {
				return sum
			}
			sum += width[i]
			word &= word - 1
		}
	}
	return sum
}

// ChannelPacket is the fixed-format message a channel monitor sends to the
// trace encoder each cycle (§3.1, Fig 5): whether a handshake started on the
// channel this cycle, the transaction content, and whether a handshake
// completed this cycle.
type ChannelPacket struct {
	Start   bool
	Content []byte
	End     bool
}

// CyclePacket is a read-only view of one cycle packet of a trace (§3.2,
// Fig 5), returned by Trace.Packet. Starts has one bit per input channel;
// Ends has one bit per channel (inputs and outputs — including output ends
// is what lets replay enforce transaction determinism). Body holds, back to
// back, the content of each input channel that started a handshake this
// cycle, in input index order, followed — when ValidateOutputs is set — by
// the content of each output channel that completed a handshake this cycle,
// in channel order. Contents have their channel's fixed width, so Body needs
// no separators. Every field aliases the trace: the view stays valid only
// until the trace is next changed.
type CyclePacket struct {
	Starts BitVec
	Ends   BitVec
	Body   []byte

	// Lossy marks a gap-region packet written while the encoder was in
	// degraded (lossy) recording mode: the contents of output end events are
	// not recorded, only the event bits. Input starts keep their contents and
	// every Starts/Ends bit is still present, so a lossy packet replays
	// exactly; what is lost is divergence-detection coverage for the output
	// transactions ending inside the gap. A run of lossy packets is a gap
	// marker: Compare counts its output ends as "unrecorded (degraded)"
	// instead of reporting spurious content divergences.
	Lossy bool

	meta *Meta
}

// Empty reports whether the packet carries no events.
func (p CyclePacket) Empty() bool { return !p.Starts.Any() && !p.Ends.Any() }

// Size returns the serialized size of the packet's Starts, Ends and
// contents in bytes.
func (p CyclePacket) Size() int { return p.meta.headerBytes() + len(p.Body) }

// Channel decomposes the packet into channel ci's own channel packet, as the
// trace decoder does for the channel replayers (§3.4). Its content is the
// start content of an input channel, or the end content recorded for an
// output channel (nil in a lossy packet or without ValidateOutputs).
func (p CyclePacket) Channel(ci int) ChannelPacket {
	m := p.meta
	cp := ChannelPacket{End: p.Ends.Get(ci)}
	at, w := 0, 0
	if ii := m.inputOf[ci]; ii >= 0 {
		if cp.Start = p.Starts.Get(ii); !cp.Start {
			return cp
		}
		at, w = widthBelow(p.Starts.words, ii, m.startWidth), m.startWidth[ii]
	} else {
		if !cp.End || p.Lossy || m.endWidth[ci] == 0 {
			return cp
		}
		at = widthBelow(p.Starts.words, len(m.startWidth), m.startWidth) + widthBelow(p.Ends.words, ci, m.endWidth)
		w = m.endWidth[ci]
	}
	cp.Content = p.Body[at : at+w : at+w]
	return cp
}

// Trace is a recorded execution: its shape plus the sequence of cycle
// packets. Only cycles with at least one transaction event produce a packet;
// idle cycles carry no happens-before information under transaction
// determinism, which is the source of Vidi's trace-size reduction.
//
// The packets live in three flat slabs rather than one object each: the
// event bits of every packet (a fixed number of words per packet: the
// Starts words, then the Ends words), the contents of every packet back to
// back, and a bitset of the lossy packets. Packet returns a view of one
// packet and Append a builder for a new one.
type Trace struct {
	Meta *Meta

	bits  []uint64 // packet i's words are bits[i*stride : (i+1)*stride]
	body  []byte   // packet i's contents are body[bodyEnd[i-1]:bodyEnd[i]]
	ends  []int    // bodyEnd: the end offset of each packet's contents
	lossy []uint64 // bit i set: packet i is lossy
}

// NewTrace returns an empty trace over m.
func NewTrace(m *Meta) *Trace { return &Trace{Meta: m} }

// Len returns the number of cycle packets.
func (t *Trace) Len() int { return len(t.ends) }

// words returns packet i's event-bit words: Starts, then Ends.
func (t *Trace) words(i int) []uint64 {
	s := t.Meta.stride()
	return t.bits[i*s : (i+1)*s : (i+1)*s]
}

// bodyStart returns the offset of packet i's first content byte.
func (t *Trace) bodyStart(i int) int {
	if i == 0 {
		return 0
	}
	return t.ends[i-1]
}

func (t *Trace) isLossy(i int) bool {
	return i/64 < len(t.lossy) && t.lossy[i/64]&(1<<(uint(i)%64)) != 0
}

// Packet returns a view of cycle packet i.
func (t *Trace) Packet(i int) CyclePacket {
	m := t.Meta
	w := t.words(i)
	lo, hi := t.bodyStart(i), t.ends[i]
	return CyclePacket{
		Starts: BitVec{n: m.NumInputs(), words: w[:m.startWords:m.startWords]},
		Ends:   BitVec{n: m.NumChannels(), words: w[m.startWords:]},
		Body:   t.body[lo:hi:hi],
		Lossy:  t.isLossy(i),
		meta:   m,
	}
}

// PacketBuilder fills in the cycle packet that Trace.Append added last.
// Events may be added in any order; the builder keeps the contents in the
// packet's wire order.
type PacketBuilder struct{ t *Trace }

// Append adds an empty cycle packet at the end of the trace, lossy or not,
// and returns a builder for its events.
func (t *Trace) Append(lossy bool) PacketBuilder {
	i := t.Len()
	t.bits = grow(t.bits, t.Meta.stride())
	t.ends = append(t.ends, len(t.body))
	if lossy {
		for len(t.lossy) <= i/64 {
			t.lossy = append(t.lossy, 0)
		}
		t.lossy[i/64] |= 1 << (uint(i) % 64)
	}
	return PacketBuilder{t}
}

// grow extends s by n zeroed words, in place when its capacity allows.
func grow(s []uint64, n int) []uint64 {
	if len(s)+n > cap(s) {
		return append(s, make([]uint64, n)...)
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// Start adds a start event with its content on input channel ci.
func (b PacketBuilder) Start(ci int, content []byte) PacketBuilder {
	t, m := b.t, b.t.Meta
	ii := m.InputIndex(ci)
	if ii < 0 {
		panic(fmt.Sprintf("trace: start on channel %d, which is not an input", ci))
	}
	i := t.Len() - 1
	w := t.words(i)
	starts := BitVec{n: m.NumInputs(), words: w[:m.startWords]}
	starts.Set(ii)
	b.insert(t.bodyStart(i)+widthBelow(starts.words, ii, m.startWidth), content)
	return b
}

// End adds an end event on channel ci. The content is kept only where the
// format records one: for an output channel, with ValidateOutputs set, in a
// packet that is not lossy.
func (b PacketBuilder) End(ci int, content []byte) PacketBuilder {
	t, m := b.t, b.t.Meta
	i := t.Len() - 1
	w := t.words(i)
	ends := BitVec{n: m.NumChannels(), words: w[m.startWords:]}
	ends.Set(ci)
	if m.endWidth[ci] > 0 && !t.isLossy(i) {
		at := t.bodyStart(i) + widthBelow(w[:m.startWords], len(m.startWidth), m.startWidth) + widthBelow(ends.words, ci, m.endWidth)
		b.insert(at, content)
	}
	return b
}

// insert places c at body offset at, inside the last packet.
func (b PacketBuilder) insert(at int, c []byte) {
	t := b.t
	n := len(t.body)
	t.body = append(t.body, c...)
	if at < n {
		copy(t.body[at+len(c):], t.body[at:n])
		copy(t.body[at:], c)
	}
	t.ends[len(t.ends)-1] += len(c)
}

// Truncate keeps the first n cycle packets of the trace.
func (t *Trace) Truncate(n int) {
	if n >= t.Len() {
		return
	}
	t.bits = t.bits[:n*t.Meta.stride()]
	t.body = t.body[:t.bodyStart(n)]
	t.ends = t.ends[:n]
	if w := n / 64; w < len(t.lossy) {
		t.lossy[w] &= 1<<(uint(n)%64) - 1
		t.lossy = t.lossy[:w+1]
	}
}

// SizeBytes returns the total serialized body size of the trace.
func (t *Trace) SizeBytes() int { return t.Len()*t.Meta.headerBytes() + len(t.body) }

// EndCounts returns the number of end events per channel.
func (t *Trace) EndCounts() []uint64 {
	m := t.Meta
	counts := make([]uint64, m.NumChannels())
	for i := 0; i < t.Len(); i++ {
		for wi, word := range t.words(i)[m.startWords:] {
			for ; word != 0; word &= word - 1 {
				counts[wi*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	return counts
}

// TotalTransactions returns the total number of end events in the trace.
func (t *Trace) TotalTransactions() uint64 {
	m := t.Meta
	var n uint64
	for i := 0; i < t.Len(); i++ {
		for _, word := range t.words(i)[m.startWords:] {
			n += uint64(bits.OnesCount64(word))
		}
	}
	return n
}

// LossyPackets returns the number of gap-region (degraded-mode) packets.
func (t *Trace) LossyPackets() int {
	n := 0
	for _, word := range t.lossy {
		n += bits.OnesCount64(word)
	}
	return n
}

// UnrecordedTransactions counts output end events inside gap regions: the
// transactions whose contents were shed by degraded recording and that
// divergence detection therefore cannot validate.
func (t *Trace) UnrecordedTransactions() uint64 {
	m := t.Meta
	if !m.ValidateOutputs {
		return 0
	}
	var n uint64
	for i := 0; i < t.Len(); i++ {
		if !t.isLossy(i) {
			continue
		}
		ends := t.Packet(i).Ends
		for _, ci := range m.OutputChannels() {
			if ends.Get(ci) {
				n++
			}
		}
	}
	return n
}

// Validate performs structural checks: each packet's content size matches
// its Starts (and, with ValidateOutputs, its output Ends) at the channels'
// widths, and per-channel starts/ends alternate legally.
func (t *Trace) Validate() error {
	m := t.Meta
	open := make([]bool, m.NumChannels())
	for pi := 0; pi < t.Len(); pi++ {
		p := t.Packet(pi)
		for ii := p.Starts.Next(0); ii >= 0; ii = p.Starts.Next(ii + 1) {
			ci := m.inputIdx[ii]
			if open[ci] {
				return fmt.Errorf("trace: packet %d: channel %s starts while in flight", pi, m.Channels[ci].Name)
			}
			open[ci] = true
		}
		for ci := p.Ends.Next(0); ci >= 0; ci = p.Ends.Next(ci + 1) {
			if m.Channels[ci].Dir == Input && !open[ci] {
				return fmt.Errorf("trace: packet %d: input channel %s ends while idle", pi, m.Channels[ci].Name)
			}
			open[ci] = false
		}
		if want := m.bodyLen(t.words(pi), p.Lossy); len(p.Body) != want {
			return fmt.Errorf("trace: packet %d: %d content bytes, its events need %d", pi, len(p.Body), want)
		}
	}
	return nil
}
