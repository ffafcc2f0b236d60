package sim

import "bytes"

// sigcore is the scheduler-facing metadata embedded in every signal (Wire
// and Data): the list of modules whose Eval reads the signal, compiled at
// Build time. When a signal changes value the scheduler marks those readers
// pending instead of re-running every module.
type sigcore struct {
	sim     *Simulator
	readers []int32 // reader modules, ascending
}

func (g *sigcore) sigmeta() *sigcore { return g }

// changed routes a value change either to the sensitivity scheduler (mark
// readers pending) or, on the legacy kernel, to the global changed flag.
func (g *sigcore) changed() {
	if sc := g.sim.sched; sc != nil {
		sc.touched(g)
	} else {
		g.sim.legacyChanged = true
	}
}

// Wire is a single-bit signal. Writes take effect immediately within the
// combinational phase; the simulator re-evaluates the modules that read the
// wire (or, on the legacy kernel, every module) until no wire changes.
//
// Storage is struct-of-arrays: the value and generation counter live in
// slabs owned by the Simulator. The Wire itself is a thin handle; until the
// first Build the pointers target the handle's own inline fields.
type Wire struct {
	sigcore
	name string
	val  bool    // inline storage until Build moves the value into a slab
	vp   *bool   // current value location (slab after Build)
	genv uint64  // inline generation storage
	gp   *uint64 // generation counter location; bumped on every value change
	// validOf is 1 + the creation index of the channel whose VALID this
	// wire is, 0 for any other wire: a rising VALID puts its channel in the
	// scheduler's latching set.
	validOf int32
}

// NewWire creates a named single-bit wire.
func (s *Simulator) NewWire(name string) *Wire {
	w := &Wire{sigcore: sigcore{sim: s}, name: name}
	w.vp = &w.val
	w.gp = &w.genv
	s.wires = append(s.wires, w)
	s.invalidate()
	return w
}

// Name returns the wire's name.
func (w *Wire) Name() string { return w.name }

// Get returns the wire's current value.
func (w *Wire) Get() bool {
	if p := w.sim.probe; p != nil {
		p.onRead(&w.sigcore)
	}
	return *w.vp
}

// peek reads the value without consulting the sensitivity probe; the
// kernel's latch phase and quiescence scan use it so they can never register
// as a module's signal access.
func (w *Wire) peek() bool { return *w.vp }

// gen returns the wire's change-generation counter. It increments on every
// effective Set, never resets (Build carries it across slab rebuilds), and
// lets observers such as the VCD writer skip compare work for signals that
// provably did not change.
func (w *Wire) gen() uint64 { return *w.gp }

// Set drives the wire. A change of value re-triggers the combinational
// settle of the wire's readers.
func (w *Wire) Set(v bool) {
	if p := w.sim.probe; p != nil {
		p.onWrite(&w.sigcore)
	}
	if *w.vp != v {
		*w.vp = v
		*w.gp++
		if v && w.validOf != 0 {
			if sc := w.sim.sched; sc != nil {
				sc.latching.add(w.validOf - 1)
			}
		}
		w.sigcore.changed()
	}
}

// Data is a multi-byte bus (the DATA payload of a channel, an address bus,
// and so on). Width is fixed at creation. Like Wire, it is a thin handle:
// after Build the payload bytes live in an arena slab.
type Data struct {
	sigcore
	name  string
	width int
	val   []byte // re-sliced into the arena at Build
	genv  uint64
	gp    *uint64
}

// NewData creates a named bus of width bytes, initialised to zero.
func (s *Simulator) NewData(name string, width int) *Data {
	d := &Data{sigcore: sigcore{sim: s}, name: name, width: width, val: make([]byte, width)}
	d.gp = &d.genv
	s.datas = append(s.datas, d)
	s.invalidate()
	return d
}

// Name returns the bus's name.
func (d *Data) Name() string { return d.name }

// Width returns the bus width in bytes.
func (d *Data) Width() int { return d.width }

// gen returns the bus's change-generation counter; see Wire.gen.
func (d *Data) gen() uint64 { return *d.gp }

// Get returns the bus's current value. The returned slice is the live
// backing array; callers must not modify it. Use Snapshot for a copy.
func (d *Data) Get() []byte {
	if p := d.sim.probe; p != nil {
		p.onRead(&d.sigcore)
	}
	return d.val
}

// Snapshot returns a copy of the bus's current value.
func (d *Data) Snapshot() []byte {
	if p := d.sim.probe; p != nil {
		p.onRead(&d.sigcore)
	}
	c := make([]byte, d.width)
	copy(c, d.val)
	return c
}

// Set drives the bus. b is copied; if b is shorter than the bus width the
// remaining bytes are zeroed. A change of value re-triggers the settle of
// the bus's readers.
func (d *Data) Set(b []byte) {
	if p := d.sim.probe; p != nil {
		p.onWrite(&d.sigcore)
	}
	if len(b) > d.width {
		b = b[:d.width]
	}
	if bytes.Equal(d.val[:len(b)], b) && allZero(d.val[len(b):]) {
		return
	}
	copy(d.val, b)
	for i := len(b); i < d.width; i++ {
		d.val[i] = 0
	}
	*d.gp++
	d.sigcore.changed()
}

// SetUint64 drives the low 8 bytes of the bus little-endian (or fewer if the
// bus is narrower) and zeroes the rest.
func (d *Data) SetUint64(v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	n := 8
	if d.width < n {
		n = d.width
	}
	d.Set(buf[:n])
}

// Uint64 interprets the low 8 bytes of the bus as a little-endian integer.
func (d *Data) Uint64() uint64 {
	if p := d.sim.probe; p != nil {
		p.onRead(&d.sigcore)
	}
	var v uint64
	n := 8
	if d.width < n {
		n = d.width
	}
	for i := 0; i < n; i++ {
		v |= uint64(d.val[i]) << (8 * i)
	}
	return v
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// buildSlabs moves every signal's value and generation state into
// struct-of-arrays slabs, in creation order. Current values and generation
// counters are carried over — generations are monotone across rebuilds,
// which is what lets observers cache them.
func (s *Simulator) buildSlabs() {
	bytesNeeded := 0
	for _, d := range s.datas {
		bytesNeeded += d.width
	}
	bools := make([]bool, len(s.wires))
	gens := make([]uint64, len(s.wires)+len(s.datas))
	arena := make([]byte, bytesNeeded)

	for i, w := range s.wires {
		bools[i] = *w.vp
		gens[i] = *w.gp
		w.vp = &bools[i]
		w.gp = &gens[i]
	}
	gi, ai := len(s.wires), 0
	for _, d := range s.datas {
		gens[gi] = *d.gp
		d.gp = &gens[gi]
		gi++
		copy(arena[ai:ai+d.width], d.val)
		d.val = arena[ai : ai+d.width : ai+d.width]
		ai += d.width
	}
	s.slabBools, s.slabGens, s.slabArena = bools, gens, arena
}
