package axi

import (
	"encoding/binary"
	"math/bits"

	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// WriteOp is one write request issued by a WriteManager. The manager reads
// Data and Strb as it presents each beat, so the caller must leave both
// untouched until Done runs.
type WriteOp struct {
	Addr uint64
	Data []byte
	// Strb optionally disables bytes (1 = write). Nil writes all bytes.
	Strb []byte
	// Done, if non-nil, is invoked with the response code when the write
	// response (B) transaction completes.
	Done func(resp uint8)
}

// WriteManager drives the AW/W/B channels of an interface as the manager
// side: it issues the write address, streams the data beats, and consumes
// the write response. AW and W progress independently, so their transaction
// events can interleave in either order — the ordering freedom the AXI
// protocol permits (§2.2 of the paper).
type WriteManager struct {
	sim.EvalTracker
	name  string
	iface *Interface

	awQueue queue[AWPayload]
	wOps    queue[WriteOp] // ops with beats not yet presented
	wBeat   int            // next beat of wOps' front op
	pending queue[pendingWrite]

	awActive bool
	awCur    AWPayload
	wActive  bool
	wCur     WPayload

	// AWGap and WGap, if non-nil, insert idle cycles before the next AW or
	// W transaction, modelling environment-side timing jitter.
	AWGap func() int
	WGap  func() int
	awGap int
	wGap  int

	// Link, if non-nil, throttles data beats to the shared link bandwidth.
	Link *TokenBucket

	// Traffic counts, written only from this manager's own Tick; the shell
	// registers them with its sink. The track is attached by the shell when
	// tracing is armed and is nil-safe and nil by default.
	Bursts uint64           // completed write bursts (B responses)
	Beats  uint64           // data beats transferred (W fires)
	Track  *telemetry.Track // one span per burst, push to response
	Now    func() uint64    // simulation cycle, required with Track

	tickWake func()
}

// pendingWrite is a pushed write awaiting its response.
type pendingWrite struct {
	done  func(uint8)
	start uint64 // push cycle (Track only)
}

// NewWriteManager creates a write manager for iface.
func NewWriteManager(name string, iface *Interface) *WriteManager {
	return &WriteManager{name: name, iface: iface}
}

// BindTickWake implements sim.TickWakeable.
func (m *WriteManager) BindTickWake(wake func()) { m.tickWake = wake }

// TickWatch implements sim.TickSensitive: the manager reacts to handshakes
// on its three channels.
func (m *WriteManager) TickWatch() []*sim.Channel {
	return []*sim.Channel{m.iface.AW, m.iface.W, m.iface.B}
}

// TickStable implements sim.TickSensitive. With empty queues and expired gap
// timers, Tick only acts on watched handshake events; presenting a beat
// (awActive/wActive) or awaiting a response (pending) needs no Tick until
// the corresponding channel fires.
func (m *WriteManager) TickStable() bool {
	return m.awQueue.len() == 0 && m.wOps.len() == 0 && m.awGap == 0 && m.wGap == 0
}

// Name implements sim.Module.
func (m *WriteManager) Name() string { return m.name }

// Push enqueues a write operation. Data longer than one beat is split into
// a burst (full interfaces only; Lite writes must fit one beat).
func (m *WriteManager) Push(op WriteOp) {
	bs := m.iface.beatBytes()
	nbeats := max((len(op.Data)+bs-1)/bs, 1)
	m.awQueue.push(AWPayload{Addr: op.Addr, Len: uint8(nbeats - 1)})
	m.wOps.push(op)
	pw := pendingWrite{done: op.Done}
	if m.Track != nil {
		pw.start = m.Now()
	}
	m.pending.push(pw)
	if m.tickWake != nil {
		m.tickWake()
	}
}

// nextBeat builds the next W beat from the front queued op, and pops the op
// with its last beat.
func (m *WriteManager) nextBeat() WPayload {
	op := m.wOps.front()
	bs := m.iface.beatBytes()
	lo := m.wBeat * bs
	hi := min(lo+bs, len(op.Data))
	var p WPayload
	copy(p.Data[:], op.Data[lo:hi])
	for j := lo; j < hi; j++ {
		if op.Strb == nil || op.Strb[j] != 0 {
			p.Strb |= 1 << (j - lo)
		}
	}
	m.wBeat++
	if hi == len(op.Data) {
		p.Last = true
		m.wBeat = 0
		m.wOps.pop()
	}
	return p
}

// Idle reports whether all pushed writes have fully completed.
func (m *WriteManager) Idle() bool {
	return !m.awActive && !m.wActive && m.awQueue.len() == 0 && m.wOps.len() == 0 && m.pending.len() == 0
}

// Eval implements sim.Module.
func (m *WriteManager) Eval() {
	m.iface.AW.Valid.Set(m.awActive)
	if m.awActive {
		var b [FullAWWidth]byte
		m.iface.AW.Data.Set(m.awCur.Encode(b[:], m.iface.Lite))
	}
	m.iface.W.Valid.Set(m.wActive)
	if m.wActive {
		var b [FullWWidth]byte
		m.iface.W.Data.Set(m.wCur.Encode(b[:], m.iface.Lite))
	}
	m.iface.B.Ready.Set(true)
}

// Sensitivity implements sim.Sensitive: outputs are functions of registered
// state only (the Link gates queue pops in Tick, not Eval).
func (m *WriteManager) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: m.iface.WriteManagerDrives()}
}

// Tick implements sim.Module.
func (m *WriteManager) Tick() {
	if m.awActive && m.iface.AW.Fired() {
		m.awActive = false
		m.Touch()
		if m.AWGap != nil {
			m.awGap = m.AWGap()
		}
	}
	if !m.awActive {
		if m.awGap > 0 {
			m.awGap--
		} else if m.awQueue.len() > 0 {
			m.awCur = m.awQueue.pop()
			m.awActive = true
			m.Touch()
		}
	}
	if m.wActive && m.iface.W.Fired() {
		m.wActive = false
		m.Touch()
		m.Beats++
		if m.Link != nil {
			m.Link.Spend(m.iface.beatBytes())
		}
		if m.WGap != nil {
			m.wGap = m.WGap()
		}
	}
	if !m.wActive {
		if m.wGap > 0 {
			m.wGap--
		} else if m.wOps.len() > 0 && (m.Link == nil || m.Link.Ok()) {
			m.wCur = m.nextBeat()
			m.wActive = true
			m.Touch()
		}
	}
	if m.iface.B.Fired() && m.pending.len() > 0 {
		pw := m.pending.pop()
		m.Bursts++
		if m.Track != nil {
			m.Track.Span("write", pw.start, m.Now()+1)
		}
		if pw.done != nil {
			pw.done(DecodeB(m.iface.B.Data.Get()).Resp)
		}
	}
}

// ReadOp is one read request issued by a ReadManager.
type ReadOp struct {
	Addr  uint64
	Beats int
	// Done receives the assembled data and worst response code.
	Done func(data []byte, resp uint8)
}

// ReadManager drives the AR/R channels of an interface as the manager side.
type ReadManager struct {
	sim.EvalTracker
	name  string
	iface *Interface

	lastReady bool // R.Ready as last driven (tracks Link.Ok flips)

	arQueue queue[ARPayload]
	pending queue[readState]

	arActive bool
	arCur    ARPayload

	ARGap func() int
	arGap int

	// Link, if non-nil, throttles accepted read beats to the shared link
	// bandwidth by gating R-side readiness.
	Link *TokenBucket

	// Traffic counts and track, as on WriteManager.
	Bursts uint64           // completed read bursts (last beat delivered)
	Beats  uint64           // data beats received (R fires)
	Track  *telemetry.Track // one span per burst, push to last beat
	Now    func() uint64

	tickWake func()
}

// readState is a pushed read awaiting its last beat.
type readState struct {
	beats int
	data  []byte
	resp  uint8
	done  func([]byte, uint8)
	start uint64 // push cycle (Track only)
}

// NewReadManager creates a read manager for iface.
func NewReadManager(name string, iface *Interface) *ReadManager {
	return &ReadManager{name: name, iface: iface}
}

// Name implements sim.Module.
func (m *ReadManager) Name() string { return m.name }

// Push enqueues a read operation.
func (m *ReadManager) Push(op ReadOp) {
	beats := max(op.Beats, 1)
	m.arQueue.push(ARPayload{Addr: op.Addr, Len: uint8(beats - 1)})
	st := readState{beats: beats, done: op.Done}
	if m.Track != nil {
		st.start = m.Now()
	}
	m.pending.push(st)
	if m.tickWake != nil {
		m.tickWake()
	}
}

// BindTickWake implements sim.TickWakeable.
func (m *ReadManager) BindTickWake(wake func()) { m.tickWake = wake }

// TickWatch implements sim.TickSensitive.
func (m *ReadManager) TickWatch() []*sim.Channel {
	return []*sim.Channel{m.iface.AR, m.iface.R}
}

// TickStable implements sim.TickSensitive: with no queued addresses and no
// gap countdown, Tick only acts on AR/R handshake events.
func (m *ReadManager) TickStable() bool {
	return m.arQueue.len() == 0 && m.arGap == 0
}

// Idle reports whether all pushed reads have fully completed.
func (m *ReadManager) Idle() bool {
	return !m.arActive && m.arQueue.len() == 0 && m.pending.len() == 0
}

// Eval implements sim.Module.
func (m *ReadManager) Eval() {
	m.iface.AR.Valid.Set(m.arActive)
	if m.arActive {
		var b [FullARWidth]byte
		m.iface.AR.Data.Set(m.arCur.Encode(b[:], m.iface.Lite))
	}
	ready := m.Link == nil || m.Link.Ok()
	m.iface.R.Ready.Set(ready)
	m.lastReady = ready
}

// Sensitivity implements sim.Sensitive.
func (m *ReadManager) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: m.iface.ReadManagerDrives()}
}

// EvalStable implements sim.Stable: stable unless registered state changed
// or the shared link crossed its readiness threshold since the last Eval.
func (m *ReadManager) EvalStable() bool {
	if !m.EvalTracker.EvalStable() {
		return false
	}
	return m.Link == nil || m.Link.Ok() == m.lastReady
}

// NeedsStablePoll implements sim.StablePoll: with a shared link attached,
// R-side readiness depends on the bucket balance, which other modules spend
// from outside this manager's Touch protocol.
func (m *ReadManager) NeedsStablePoll() bool { return m.Link != nil }

// Tick implements sim.Module.
func (m *ReadManager) Tick() {
	if m.arActive && m.iface.AR.Fired() {
		m.arActive = false
		m.Touch()
		if m.ARGap != nil {
			m.arGap = m.ARGap()
		}
	}
	if !m.arActive {
		if m.arGap > 0 {
			m.arGap--
		} else if m.arQueue.len() > 0 {
			m.arCur = m.arQueue.pop()
			m.arActive = true
			m.Touch()
		}
	}
	if m.iface.R.Fired() && m.pending.len() > 0 {
		bs := m.iface.beatBytes()
		if m.Link != nil {
			m.Link.Spend(bs)
		}
		m.Beats++
		beat := DecodeR(m.iface.R.Data.Get(), m.iface.Lite)
		st := m.pending.front()
		if st.data == nil {
			st.data = make([]byte, 0, st.beats*bs)
		}
		st.data = append(st.data, beat.Data[:bs]...)
		st.resp = max(st.resp, beat.Resp)
		if beat.Last {
			r := m.pending.pop()
			m.Bursts++
			if m.Track != nil {
				m.Track.Span("read", r.start, m.Now()+1)
			}
			if r.done != nil {
				r.done(r.data, r.resp)
			}
		}
	}
}

// TokenBucket models a bandwidth-limited link (e.g. PCIe to CPU-side DRAM).
// Consumers spend bytes after their beats fire; when the balance is
// negative, consumers must stall. A shared bucket models contention between
// the application's own traffic and Vidi's trace store (§5.5's source of
// recording overhead).
type TokenBucket struct {
	sim.NullEval
	name       string
	BytesPerCy float64
	MaxBurst   float64
	balance    float64

	tickWake func()
}

// NewTokenBucket creates a bucket replenished at rate bytes/cycle with the
// given burst capacity.
func NewTokenBucket(name string, rate, burst float64) *TokenBucket {
	return &TokenBucket{name: name, BytesPerCy: rate, MaxBurst: burst, balance: burst}
}

// Name implements sim.Module.
func (t *TokenBucket) Name() string { return t.name }

// Ok reports whether the link can accept more traffic this cycle.
func (t *TokenBucket) Ok() bool { return t.balance >= 0 }

// Spend debits n bytes. Call from Tick after observing a fired beat. The
// balance is shared Go state the sensitivity graph cannot see; spenders
// observe each other's debits in registration order, as every Tick does.
func (t *TokenBucket) Spend(n int) {
	t.balance -= float64(n)
	if t.tickWake != nil {
		t.tickWake()
	}
}

// Tick implements sim.Module.
func (t *TokenBucket) Tick() {
	t.balance += t.BytesPerCy
	if t.balance > t.MaxBurst {
		t.balance = t.MaxBurst
	}
}

// BindTickWake implements sim.TickWakeable.
func (t *TokenBucket) BindTickWake(wake func()) { t.tickWake = wake }

// TickWatch implements sim.TickSensitive: the bucket has no channels of its
// own; Spend wakes it.
func (t *TokenBucket) TickWatch() []*sim.Channel { return nil }

// TickStable implements sim.TickSensitive: replenishing a full bucket is a
// no-op, so the bucket sleeps until someone spends from it.
func (t *TokenBucket) TickStable() bool { return t.balance >= t.MaxBurst }

// MemSubordinate serves the subordinate side of an interface from a backing
// Mem: it accepts writes (AW+W, responding on B only after both the address
// and all data beats have completed — the ordering requirement of Fig 2) and
// reads (AR, streaming beats on R).
type MemSubordinate struct {
	sim.EvalTracker
	name  string
	iface *Interface
	mem   Mem

	lastWReady bool // W.Ready as last driven (tracks Link.Ok flips)

	// Link, if non-nil, throttles data beats to the link's bandwidth.
	Link *TokenBucket
	// RespDelay, if non-nil, returns extra latency cycles before each B or
	// first R beat, modelling device-side jitter.
	RespDelay func() int

	// Base is subtracted from incoming addresses before indexing mem.
	Base uint64

	// Traffic counts, as on WriteManager.
	Bursts uint64 // bursts served (write commits + read starts)
	Beats  uint64 // data beats moved (W and R fires)

	awBuf queue[AWPayload]
	wBuf  queue[WPayload]

	bDelay  int
	bActive bool

	rq      queue[ARPayload]
	rBeats  queue[RPayload] // the current read burst's beats, read at its start
	rActive bool
	rCur    RPayload
	rDelay  int

	// Err records the first out-of-range access.
	Err error
}

// NewMemSubordinate creates a memory-backed subordinate for iface.
func NewMemSubordinate(name string, iface *Interface, mem Mem) *MemSubordinate {
	return &MemSubordinate{name: name, iface: iface, mem: mem}
}

// Name implements sim.Module.
func (s *MemSubordinate) Name() string { return s.name }

// Eval implements sim.Module.
func (s *MemSubordinate) Eval() {
	linkOK := s.Link == nil || s.Link.Ok()
	s.iface.AW.Ready.Set(s.awBuf.len() < 4)
	wReady := s.wBuf.len() < 64 && linkOK
	s.iface.W.Ready.Set(wReady)
	s.lastWReady = wReady
	s.iface.B.Valid.Set(s.bActive)
	if s.bActive {
		var b [FullBWidth]byte
		s.iface.B.Data.Set(BPayload{Resp: RespOKAY}.Encode(b[:]))
	}
	s.iface.AR.Ready.Set(s.rq.len() < 4)
	// Once a beat is offered, VALID stays high until it fires (protocol
	// stability); link throttling only delays starting the next beat.
	s.iface.R.Valid.Set(s.rActive)
	if s.rActive {
		var b [FullRWidth]byte
		s.iface.R.Data.Set(s.rCur.Encode(b[:], s.iface.Lite))
	}
}

// Sensitivity implements sim.Sensitive.
func (s *MemSubordinate) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: s.iface.SubordinateDrives()}
}

// busy reports whether any buffered or in-flight work could change Eval's
// outputs at the next clock edge.
func (s *MemSubordinate) busy() bool {
	return s.awBuf.len() > 0 || s.wBuf.len() > 0 || s.bActive || s.bDelay > 0 ||
		s.rq.len() > 0 || s.rBeats.len() > 0 || s.rActive || s.rDelay > 0
}

// EvalStable implements sim.Stable.
func (s *MemSubordinate) EvalStable() bool {
	if !s.EvalTracker.EvalStable() {
		return false
	}
	return s.Link == nil || (s.wBuf.len() < 64 && s.Link.Ok()) == s.lastWReady
}

// NeedsStablePoll implements sim.StablePoll: W-side readiness tracks the
// shared link balance, which changes outside this subordinate's own Ticks.
func (s *MemSubordinate) NeedsStablePoll() bool { return s.Link != nil }

// TickWatch implements sim.TickSensitive: an idle subordinate only has to
// wake for incoming requests; B and R cannot fire while it is idle.
func (s *MemSubordinate) TickWatch() []*sim.Channel {
	return []*sim.Channel{s.iface.AW, s.iface.W, s.iface.AR}
}

// TickStable implements sim.TickSensitive.
func (s *MemSubordinate) TickStable() bool { return !s.busy() }

// writeRun writes one run of strobed bytes. A run that straddles the end of
// memory still writes its in-range prefix; the first failure lands in Err.
func (s *MemSubordinate) writeRun(addr uint64, p []byte) {
	if size := s.mem.Size(); addr < size && uint64(len(p)) > size-addr {
		s.writeRun(addr, p[:size-addr])
		addr, p = size, p[size-addr:]
	}
	if err := s.mem.WriteAt(addr, p); err != nil && s.Err == nil {
		s.Err = err
	}
}

// Tick implements sim.Module.
func (s *MemSubordinate) Tick() {
	// Conservative stability: re-evaluate whenever work was or remains in
	// flight (covers both activations and the final active→idle edge).
	if s.busy() {
		s.Touch()
	}
	defer func() {
		if s.busy() {
			s.Touch()
		}
	}()
	// Accept address and data beats.
	if s.iface.AW.Fired() {
		s.awBuf.push(DecodeAW(s.iface.AW.Data.Get(), s.iface.Lite))
	}
	if s.iface.W.Fired() {
		s.wBuf.push(DecodeW(s.iface.W.Data.Get(), s.iface.Lite))
		s.Beats++
		if s.Link != nil {
			s.Link.Spend(s.iface.beatBytes())
		}
	}
	// Complete a write once its address and all Len+1 beats are present.
	if !s.bActive && s.bDelay == 0 && s.awBuf.len() > 0 && s.wBuf.len() > int(s.awBuf.front().Len) {
		aw := s.awBuf.pop()
		addr := aw.Addr - s.Base
		bs := uint64(s.iface.beatBytes())
		for i := uint64(0); i <= uint64(aw.Len); i++ {
			beat := s.wBuf.front()
			// One write per contiguous run of enabled strobe bytes: j is
			// the run's first byte, k the byte after its last.
			for m := beat.Strb; m != 0; {
				j := bits.TrailingZeros64(m)
				k := j + bits.TrailingZeros64(^(m >> j))
				s.writeRun(addr+i*bs+uint64(j), beat.Data[j:k])
				m &^= 1<<k - 1
			}
			s.wBuf.pop()
		}
		s.Bursts++
		if s.RespDelay != nil {
			s.bDelay = s.RespDelay()
		}
		if s.bDelay == 0 {
			s.bActive = true
		}
	} else if s.bDelay > 0 {
		s.bDelay--
		if s.bDelay == 0 {
			s.bActive = true
		}
	}
	if s.bActive && s.iface.B.Fired() {
		s.bActive = false
	}

	// Reads.
	if s.iface.AR.Fired() {
		s.rq.push(DecodeAR(s.iface.AR.Data.Get(), s.iface.Lite))
	}
	linkOK := s.Link == nil || s.Link.Ok()
	if s.rActive && s.iface.R.Fired() {
		s.Beats++
		if s.Link != nil {
			s.Link.Spend(s.iface.beatBytes())
		}
		s.rActive = false
	}
	if !s.rActive && s.rBeats.len() > 0 && linkOK {
		s.rCur = s.rBeats.pop()
		s.rActive = true
	}
	if !s.rActive && s.rBeats.len() == 0 && s.rq.len() > 0 {
		if s.rDelay == 0 && s.RespDelay != nil {
			s.rDelay = s.RespDelay() + 1
		}
		if s.rDelay > 1 {
			s.rDelay--
		} else {
			s.rDelay = 0
			ar := s.rq.pop()
			s.Bursts++
			bs := s.iface.beatBytes()
			for i := 0; i <= int(ar.Len); i++ {
				beat := s.rBeats.push(RPayload{Resp: RespOKAY, Last: i == int(ar.Len)})
				if err := s.mem.ReadAt(ar.Addr-s.Base+uint64(i*bs), beat.Data[:bs]); err != nil && s.Err == nil {
					s.Err = err
				}
			}
			s.rCur = s.rBeats.pop()
			s.rActive = true
		}
	}
}

// RegSubordinate serves an AXI-Lite interface as a register file: writes and
// reads at 4-byte granularity are dispatched to callbacks. It is the typical
// FPGA-side endpoint of the ocl/sda/bar1 MMIO buses.
type RegSubordinate struct {
	sim.EvalTracker
	name  string
	iface *Interface

	// OnWrite handles a register write.
	OnWrite func(addr uint64, val uint32)
	// OnRead produces a register value.
	OnRead func(addr uint64) uint32

	awBuf   queue[AWPayload]
	wBuf    queue[WPayload]
	bActive bool

	rq      queue[ARPayload]
	rActive bool
	rCur    RPayload
}

// NewRegSubordinate creates a register-file subordinate for a Lite iface.
func NewRegSubordinate(name string, iface *Interface) *RegSubordinate {
	return &RegSubordinate{name: name, iface: iface}
}

// Name implements sim.Module.
func (s *RegSubordinate) Name() string { return s.name }

// Eval implements sim.Module.
func (s *RegSubordinate) Eval() {
	s.iface.AW.Ready.Set(s.awBuf.len() < 2)
	s.iface.W.Ready.Set(s.wBuf.len() < 2)
	s.iface.B.Valid.Set(s.bActive)
	if s.bActive {
		var b [FullBWidth]byte
		s.iface.B.Data.Set(BPayload{Resp: RespOKAY}.Encode(b[:]))
	}
	s.iface.AR.Ready.Set(s.rq.len() < 2)
	s.iface.R.Valid.Set(s.rActive)
	if s.rActive {
		var b [LiteRWidth]byte
		s.iface.R.Data.Set(s.rCur.Encode(b[:], true))
	}
}

// Sensitivity implements sim.Sensitive. The OnWrite/OnRead callbacks run at
// Tick time and often mutate another module's state, which that module sees
// in registration order, exactly as on the legacy kernel.
func (s *RegSubordinate) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: s.iface.SubordinateDrives()}
}

func (s *RegSubordinate) busy() bool {
	return s.awBuf.len() > 0 || s.wBuf.len() > 0 || s.bActive || s.rq.len() > 0 || s.rActive
}

// TickWatch implements sim.TickSensitive.
func (s *RegSubordinate) TickWatch() []*sim.Channel {
	return []*sim.Channel{s.iface.AW, s.iface.W, s.iface.AR}
}

// TickStable implements sim.TickSensitive.
func (s *RegSubordinate) TickStable() bool { return !s.busy() }

// Tick implements sim.Module.
func (s *RegSubordinate) Tick() {
	if s.busy() {
		s.Touch()
	}
	defer func() {
		if s.busy() {
			s.Touch()
		}
	}()
	if s.iface.AW.Fired() {
		s.awBuf.push(DecodeAW(s.iface.AW.Data.Get(), true))
	}
	if s.iface.W.Fired() {
		s.wBuf.push(DecodeW(s.iface.W.Data.Get(), true))
	}
	if !s.bActive && s.awBuf.len() > 0 && s.wBuf.len() > 0 {
		aw, w := s.awBuf.pop(), s.wBuf.pop()
		if s.OnWrite != nil {
			s.OnWrite(aw.Addr, binary.LittleEndian.Uint32(w.Data[:4]))
		}
		s.bActive = true
	}
	if s.bActive && s.iface.B.Fired() {
		s.bActive = false
	}

	if s.iface.AR.Fired() {
		s.rq.push(DecodeAR(s.iface.AR.Data.Get(), true))
	}
	if !s.rActive && s.rq.len() > 0 {
		ar := s.rq.pop()
		var v uint32
		if s.OnRead != nil {
			v = s.OnRead(ar.Addr)
		}
		s.rCur = RPayload{Resp: RespOKAY, Last: true}
		binary.LittleEndian.PutUint32(s.rCur.Data[:], v)
		s.rActive = true
	}
	if s.rActive && s.iface.R.Fired() {
		s.rActive = false
	}
}

// queue is a FIFO of values that reuses its backing array: pop advances a
// head index and clears the slot it leaves, the queue rewinds when it
// drains, and a push into a full array first slides the live values down.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest value's slot, valid until the next push or pop.
func (q *queue[T]) front() *T { return &q.buf[q.head] }

// push appends v and returns its slot, valid until the next push or pop.
func (q *queue[T]) push(v T) *T {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
	return &q.buf[len(q.buf)-1]
}

func (q *queue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
