package axi

import (
	"bytes"
	"fmt"

	"vidi/internal/sim"
)

// ProtocolChecker enforces the VALID/READY handshake rules on a set of
// channels, in the spirit of the Xilinx AXI Protocol Checker the paper
// cites: once VALID is asserted it must remain asserted and the payload
// must remain stable until the handshake completes. The Vidi channel monitor
// relies on these rules, and violating them (as the paper observed of Debug
// Governor) can wedge a design.
//
// Register it both as a module (to track state across cycles) and as a
// checker (to fail the simulation at the violating cycle).
type ProtocolChecker struct {
	name  string
	chans []*sim.Channel
	state []checkState
	err   error

	// tracked counts states with inFlight set, letting Check return without
	// scanning on the (common) fully idle cycle.
	tracked int
}

type checkState struct {
	inFlight bool
	data     []byte
}

// NewProtocolChecker creates a checker over the given channels.
func NewProtocolChecker(name string, chans ...*sim.Channel) *ProtocolChecker {
	return &ProtocolChecker{name: name, chans: chans, state: make([]checkState, len(chans))}
}

// Add appends more channels to check.
func (c *ProtocolChecker) Add(chans ...*sim.Channel) {
	c.chans = append(c.chans, chans...)
	c.state = append(c.state, make([]checkState, len(chans))...)
}

// Name implements sim.Module and sim.Checker.
func (c *ProtocolChecker) Name() string { return c.name }

// Eval implements sim.Module.
func (c *ProtocolChecker) Eval() {}

// Sensitivity implements sim.Sensitive: the checker only observes settled
// signals (Check runs after settle, Tick reads latched events), so it has
// no combinational footprint.
func (c *ProtocolChecker) Sensitivity() sim.Sensitivity { return sim.Sensitivity{} }

// EvalStable implements sim.Stable.
func (c *ProtocolChecker) EvalStable() bool { return true }

// Check implements sim.Checker: it inspects the settled network each cycle.
func (c *ProtocolChecker) Check() error {
	if c.err != nil {
		return c.err
	}
	if c.tracked == 0 {
		return nil
	}
	for i, ch := range c.chans {
		st := &c.state[i]
		if !st.inFlight {
			continue
		}
		if !ch.Valid.Get() {
			c.err = fmt.Errorf("axi: channel %s deasserted VALID before the handshake completed", ch.Name())
			return c.err
		}
		if !bytes.Equal(ch.Data.Get(), st.data) {
			c.err = fmt.Errorf("axi: channel %s changed DATA mid-transaction", ch.Name())
			return c.err
		}
	}
	return nil
}

// Tick implements sim.Module: it snapshots in-flight transactions at the
// clock edge.
func (c *ProtocolChecker) Tick() {
	c.tracked = 0
	for i, ch := range c.chans {
		st := &c.state[i]
		if ch.InFlight() {
			if !st.inFlight {
				st.data = ch.Data.Snapshot()
			}
			st.inFlight = true
			c.tracked++
		} else {
			st.inFlight = false
		}
	}
}

// TickWatch implements sim.TickSensitive: tracking state only changes when a
// transaction starts or completes on a watched channel.
func (c *ProtocolChecker) TickWatch() []*sim.Channel { return c.chans }

// TickStable implements sim.TickSensitive. Check still runs every cycle
// against the latest snapshots; Tick itself only needs handshake edges.
func (c *ProtocolChecker) TickStable() bool { return true }

// Install registers the checker with the simulator as both module and
// invariant.
func (c *ProtocolChecker) Install(s *sim.Simulator) {
	s.Register(c)
	s.AddChecker(c)
}
