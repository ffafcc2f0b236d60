package axi

import (
	"vidi/internal/sim"
	"vidi/internal/telemetry"
)

// WriteOp is one write request issued by a WriteManager.
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

	awQueue [][]byte
	wQueue  [][]byte
	pending []func(uint8)

	awActive bool
	awCur    []byte
	wActive  bool
	wCur     []byte

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

	pendStart []uint64 // per-pending-burst push cycles (Track only)

	tickWake func()
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
	return len(m.awQueue) == 0 && len(m.wQueue) == 0 && m.awGap == 0 && m.wGap == 0
}

// Name implements sim.Module.
func (m *WriteManager) Name() string { return m.name }

// beatSize returns the data bytes per beat for the interface flavour.
func (m *WriteManager) beatSize() int {
	if m.iface.Lite {
		return 4
	}
	return FullDataBytes
}

// Push enqueues a write operation. Data longer than one beat is split into
// a burst (full interfaces only; Lite writes must fit one beat).
func (m *WriteManager) Push(op WriteOp) {
	bs := m.beatSize()
	nbeats := (len(op.Data) + bs - 1) / bs
	if nbeats == 0 {
		nbeats = 1
	}
	m.awQueue = append(m.awQueue, AWPayload{Addr: op.Addr, Len: uint8(nbeats - 1)}.Encode(m.iface.Lite))
	for i := 0; i < nbeats; i++ {
		lo := i * bs
		hi := lo + bs
		if hi > len(op.Data) {
			hi = len(op.Data)
		}
		data := make([]byte, bs)
		copy(data, op.Data[lo:hi])
		strb := make([]byte, bs)
		for j := lo; j < hi; j++ {
			if op.Strb == nil || op.Strb[j] != 0 {
				strb[j-lo] = 1
			}
		}
		m.wQueue = append(m.wQueue, WPayload{Data: data, Strb: strb, Last: i == nbeats-1}.Encode(m.iface.Lite))
	}
	m.pending = append(m.pending, op.Done)
	if m.Track != nil {
		m.pendStart = append(m.pendStart, m.Now())
	}
	if m.tickWake != nil {
		m.tickWake()
	}
}

// Idle reports whether all pushed writes have fully completed.
func (m *WriteManager) Idle() bool {
	return !m.awActive && !m.wActive && len(m.awQueue) == 0 && len(m.wQueue) == 0 && len(m.pending) == 0
}

// Eval implements sim.Module.
func (m *WriteManager) Eval() {
	m.iface.AW.Valid.Set(m.awActive)
	if m.awActive {
		m.iface.AW.Data.Set(m.awCur)
	}
	m.iface.W.Valid.Set(m.wActive)
	if m.wActive {
		m.iface.W.Data.Set(m.wCur)
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
		} else if len(m.awQueue) > 0 {
			m.awCur = m.awQueue[0]
			m.awQueue = m.awQueue[1:]
			m.awActive = true
			m.Touch()
		}
	}
	if m.wActive && m.iface.W.Fired() {
		m.wActive = false
		m.Touch()
		m.Beats++
		if m.Link != nil {
			m.Link.Spend(m.beatSize())
		}
		if m.WGap != nil {
			m.wGap = m.WGap()
		}
	}
	if !m.wActive {
		if m.wGap > 0 {
			m.wGap--
		} else if len(m.wQueue) > 0 && (m.Link == nil || m.Link.Ok()) {
			m.wCur = m.wQueue[0]
			m.wQueue = m.wQueue[1:]
			m.wActive = true
			m.Touch()
		}
	}
	if m.iface.B.Fired() && len(m.pending) > 0 {
		done := m.pending[0]
		m.pending = m.pending[1:]
		m.Bursts++
		if m.Track != nil && len(m.pendStart) > 0 {
			m.Track.Span("write", m.pendStart[0], m.Now()+1)
			m.pendStart = m.pendStart[1:]
		}
		if done != nil {
			done(DecodeB(m.iface.B.Data.Get()).Resp)
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

	arQueue [][]byte
	pending []*readState

	arActive bool
	arCur    []byte

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

	pendStart []uint64

	tickWake func()
}

type readState struct {
	data []byte
	resp uint8
	done func([]byte, uint8)
}

// NewReadManager creates a read manager for iface.
func NewReadManager(name string, iface *Interface) *ReadManager {
	return &ReadManager{name: name, iface: iface}
}

// Name implements sim.Module.
func (m *ReadManager) Name() string { return m.name }

func (m *ReadManager) beatSize() int {
	if m.iface.Lite {
		return 4
	}
	return FullDataBytes
}

// Push enqueues a read operation.
func (m *ReadManager) Push(op ReadOp) {
	beats := op.Beats
	if beats < 1 {
		beats = 1
	}
	m.arQueue = append(m.arQueue, ARPayload{Addr: op.Addr, Len: uint8(beats - 1)}.Encode(m.iface.Lite))
	m.pending = append(m.pending, &readState{done: op.Done})
	if m.Track != nil {
		m.pendStart = append(m.pendStart, m.Now())
	}
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
	return len(m.arQueue) == 0 && m.arGap == 0
}

// Idle reports whether all pushed reads have fully completed.
func (m *ReadManager) Idle() bool {
	return !m.arActive && len(m.arQueue) == 0 && len(m.pending) == 0
}

// Eval implements sim.Module.
func (m *ReadManager) Eval() {
	m.iface.AR.Valid.Set(m.arActive)
	if m.arActive {
		m.iface.AR.Data.Set(m.arCur)
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
		} else if len(m.arQueue) > 0 {
			m.arCur = m.arQueue[0]
			m.arQueue = m.arQueue[1:]
			m.arActive = true
			m.Touch()
		}
	}
	if m.iface.R.Fired() && len(m.pending) > 0 {
		if m.Link != nil {
			m.Link.Spend(m.beatSize())
		}
		m.Beats++
		beat := DecodeR(m.iface.R.Data.Get(), m.iface.Lite)
		st := m.pending[0]
		st.data = append(st.data, beat.Data...)
		if beat.Resp > st.resp {
			st.resp = beat.Resp
		}
		if beat.Last {
			m.pending = m.pending[1:]
			m.Bursts++
			if m.Track != nil && len(m.pendStart) > 0 {
				m.Track.Span("read", m.pendStart[0], m.Now()+1)
				m.pendStart = m.pendStart[1:]
			}
			if st.done != nil {
				st.done(st.data, st.resp)
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

	awBuf []AWPayload
	wBuf  []WPayload

	bDelay  int
	bActive bool

	rq      []ARPayload
	rBeats  [][]byte
	rActive bool
	rCur    []byte
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

func (s *MemSubordinate) beatSize() int {
	if s.iface.Lite {
		return 4
	}
	return FullDataBytes
}

// haveCompleteBurst reports whether a full write (address + all beats with
// Last) is buffered.
func (s *MemSubordinate) haveCompleteBurst() bool {
	if len(s.awBuf) == 0 {
		return false
	}
	need := int(s.awBuf[0].Len) + 1
	return len(s.wBuf) >= need
}

// Eval implements sim.Module.
func (s *MemSubordinate) Eval() {
	linkOK := s.Link == nil || s.Link.Ok()
	s.iface.AW.Ready.Set(len(s.awBuf) < 4)
	wReady := len(s.wBuf) < 64 && linkOK
	s.iface.W.Ready.Set(wReady)
	s.lastWReady = wReady
	s.iface.B.Valid.Set(s.bActive)
	if s.bActive {
		s.iface.B.Data.Set(BPayload{Resp: RespOKAY}.Encode())
	}
	s.iface.AR.Ready.Set(len(s.rq) < 4)
	// Once a beat is offered, VALID stays high until it fires (protocol
	// stability); link throttling only delays starting the next beat.
	s.iface.R.Valid.Set(s.rActive)
	if s.rActive {
		s.iface.R.Data.Set(s.rCur)
	}
}

// Sensitivity implements sim.Sensitive.
func (s *MemSubordinate) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: s.iface.SubordinateDrives()}
}

// busy reports whether any buffered or in-flight work could change Eval's
// outputs at the next clock edge.
func (s *MemSubordinate) busy() bool {
	return len(s.awBuf) > 0 || len(s.wBuf) > 0 || s.bActive || s.bDelay > 0 ||
		len(s.rq) > 0 || len(s.rBeats) > 0 || s.rActive || s.rDelay > 0
}

// EvalStable implements sim.Stable.
func (s *MemSubordinate) EvalStable() bool {
	if !s.EvalTracker.EvalStable() {
		return false
	}
	return s.Link == nil || (len(s.wBuf) < 64 && s.Link.Ok()) == s.lastWReady
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
		s.awBuf = append(s.awBuf, DecodeAW(s.iface.AW.Data.Get(), s.iface.Lite))
	}
	if s.iface.W.Fired() {
		s.wBuf = append(s.wBuf, DecodeW(s.iface.W.Data.Get(), s.iface.Lite))
		s.Beats++
		if s.Link != nil {
			s.Link.Spend(s.beatSize())
		}
	}
	// Complete a write once the whole burst is present.
	if !s.bActive && s.bDelay == 0 && s.haveCompleteBurst() {
		aw := s.awBuf[0]
		need := int(aw.Len) + 1
		addr := aw.Addr - s.Base
		bs := s.beatSize()
		for i := 0; i < need; i++ {
			beat := s.wBuf[i]
			// One write per contiguous run of enabled strobe bytes.
			for j := 0; j < len(beat.Strb); {
				if beat.Strb[j] == 0 {
					j++
					continue
				}
				k := j + 1
				for k < len(beat.Strb) && beat.Strb[k] != 0 {
					k++
				}
				s.writeRun(addr+uint64(i*bs+j), beat.Data[j:k])
				j = k
			}
		}
		s.awBuf = s.awBuf[1:]
		s.wBuf = s.wBuf[need:]
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
		s.rq = append(s.rq, DecodeAR(s.iface.AR.Data.Get(), s.iface.Lite))
	}
	linkOK := s.Link == nil || s.Link.Ok()
	if s.rActive && s.iface.R.Fired() {
		s.Beats++
		if s.Link != nil {
			s.Link.Spend(s.beatSize())
		}
		s.rActive = false
	}
	if !s.rActive && len(s.rBeats) > 0 && linkOK {
		s.rCur = s.rBeats[0]
		s.rBeats = s.rBeats[1:]
		s.rActive = true
	}
	if !s.rActive && len(s.rBeats) == 0 && len(s.rq) > 0 {
		if s.rDelay == 0 && s.RespDelay != nil {
			s.rDelay = s.RespDelay() + 1
		}
		if s.rDelay > 1 {
			s.rDelay--
		} else {
			s.rDelay = 0
			ar := s.rq[0]
			s.rq = s.rq[1:]
			s.Bursts++
			bs := s.beatSize()
			beats := int(ar.Len) + 1
			for i := 0; i < beats; i++ {
				data := make([]byte, bs)
				if err := s.mem.ReadAt(ar.Addr-s.Base+uint64(i*bs), data); err != nil && s.Err == nil {
					s.Err = err
				}
				s.rBeats = append(s.rBeats, RPayload{Data: data, Resp: RespOKAY, Last: i == beats-1}.Encode(s.iface.Lite))
			}
			s.rCur = s.rBeats[0]
			s.rBeats = s.rBeats[1:]
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

	awBuf   []AWPayload
	wBuf    []WPayload
	bActive bool

	rq      []ARPayload
	rActive bool
	rCur    []byte
}

// NewRegSubordinate creates a register-file subordinate for a Lite iface.
func NewRegSubordinate(name string, iface *Interface) *RegSubordinate {
	return &RegSubordinate{name: name, iface: iface}
}

// Name implements sim.Module.
func (s *RegSubordinate) Name() string { return s.name }

// Eval implements sim.Module.
func (s *RegSubordinate) Eval() {
	s.iface.AW.Ready.Set(len(s.awBuf) < 2)
	s.iface.W.Ready.Set(len(s.wBuf) < 2)
	s.iface.B.Valid.Set(s.bActive)
	if s.bActive {
		s.iface.B.Data.Set(BPayload{Resp: RespOKAY}.Encode())
	}
	s.iface.AR.Ready.Set(len(s.rq) < 2)
	s.iface.R.Valid.Set(s.rActive)
	if s.rActive {
		s.iface.R.Data.Set(s.rCur)
	}
}

// Sensitivity implements sim.Sensitive. The OnWrite/OnRead callbacks run at
// Tick time and often mutate another module's state, which that module sees
// in registration order, exactly as on the legacy kernel.
func (s *RegSubordinate) Sensitivity() sim.Sensitivity {
	return sim.Sensitivity{Drives: s.iface.SubordinateDrives()}
}

func (s *RegSubordinate) busy() bool {
	return len(s.awBuf) > 0 || len(s.wBuf) > 0 || s.bActive || len(s.rq) > 0 || s.rActive
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
		s.awBuf = append(s.awBuf, DecodeAW(s.iface.AW.Data.Get(), true))
	}
	if s.iface.W.Fired() {
		s.wBuf = append(s.wBuf, DecodeW(s.iface.W.Data.Get(), true))
	}
	if !s.bActive && len(s.awBuf) > 0 && len(s.wBuf) > 0 {
		aw, w := s.awBuf[0], s.wBuf[0]
		s.awBuf, s.wBuf = s.awBuf[1:], s.wBuf[1:]
		if s.OnWrite != nil {
			var v uint32
			for i := 0; i < 4; i++ {
				v |= uint32(w.Data[i]) << (8 * i)
			}
			s.OnWrite(aw.Addr, v)
		}
		s.bActive = true
	}
	if s.bActive && s.iface.B.Fired() {
		s.bActive = false
	}

	if s.iface.AR.Fired() {
		s.rq = append(s.rq, DecodeAR(s.iface.AR.Data.Get(), true))
	}
	if !s.rActive && len(s.rq) > 0 {
		ar := s.rq[0]
		s.rq = s.rq[1:]
		var v uint32
		if s.OnRead != nil {
			v = s.OnRead(ar.Addr)
		}
		data := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
		s.rCur = RPayload{Data: data, Resp: RespOKAY, Last: true}.Encode(true)
		s.rActive = true
	}
	if s.rActive && s.iface.R.Fired() {
		s.rActive = false
	}
}
