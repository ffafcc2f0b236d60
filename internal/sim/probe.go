package sim

import (
	"errors"
	"fmt"
)

// ErrSensitivity is the sentinel wrapped by SensitivityViolationError.
var ErrSensitivity = errors.New("sim: sensitivity violation")

// SensitivityViolationError reports a mismatch between a module's declared
// Sensitivity and the signal accesses its Eval actually performed, caught by
// the dynamic sensitivity checker (SetSensitivityCheck). An undeclared read
// means the scheduler may fail to re-evaluate the module when that signal
// changes (a missed wakeup); an undeclared drive hides a writer from the
// declared footprint, so a module re-reading the signal under its own Drives
// declaration may miss the hidden writer's changes (a hidden writer).
type SensitivityViolationError struct {
	// Module is the offending module's name.
	Module string
	// Signal is the accessed signal's name.
	Signal string
	// Kind is "read" or "drive".
	Kind string
	// Cycle is the clock cycle at which the access was observed.
	Cycle uint64
}

// Error implements error.
func (e *SensitivityViolationError) Error() string {
	consequence := "missed wakeup"
	if e.Kind == "drive" {
		consequence = "hidden writer"
	}
	return fmt.Sprintf("%v: module %q %s of undeclared signal %q at cycle %d (%s)",
		ErrSensitivity, e.Module, e.Kind, e.Signal, e.Cycle, consequence)
}

// Unwrap keeps errors.Is(err, ErrSensitivity) working.
func (e *SensitivityViolationError) Unwrap() error { return ErrSensitivity }

// sensProbe is the dynamic sensitivity checker's recording state. While a
// module's Eval runs under the sensitivity scheduler, the instrumented Wire
// and Data accessors record every signal read and write here; after the Eval
// returns, the scheduler cross-checks the record against the module's
// declared Sensitivity. The probe is nil unless SetSensitivityCheck(true)
// was called, so the accessor fast path costs a single pointer test.
type sensProbe struct {
	// active marks that a module Eval is in progress.
	active bool
	reads  []*sigcore
	writes []*sigcore

	// declared sensitivity per module index; nil entries are ReadsAll
	// modules, which the checker skips (they are re-evaluated on every
	// wave, so no access of theirs can be a missed wakeup).
	reads2  []map[*sigcore]struct{}
	drives2 []map[*sigcore]struct{}

	// names resolves a sigcore back to its signal for error messages.
	names map[*sigcore]string
}

func (p *sensProbe) begin() {
	p.active = true
	p.reads = p.reads[:0]
	p.writes = p.writes[:0]
}

func (p *sensProbe) end() { p.active = false }

func (p *sensProbe) onRead(g *sigcore) {
	if p.active {
		p.reads = append(p.reads, g)
	}
}

func (p *sensProbe) onWrite(g *sigcore) {
	if p.active {
		p.writes = append(p.writes, g)
	}
}

// check cross-checks the accesses recorded for module index mi against its
// declared sensitivity. A declared drive also licenses a read-back: a module
// re-reading its own output cannot miss a wakeup, because the value only
// changes when the module itself changes it.
func (p *sensProbe) check(mi int, name string, cycle uint64) error {
	reads, drives := p.reads2[mi], p.drives2[mi]
	if reads == nil && drives == nil {
		return nil // ReadsAll fallback: every wave re-evaluates the module
	}
	for _, g := range p.reads {
		if _, ok := reads[g]; ok {
			continue
		}
		if _, ok := drives[g]; ok {
			continue
		}
		return &SensitivityViolationError{Module: name, Signal: p.names[g], Kind: "read", Cycle: cycle}
	}
	for _, g := range p.writes {
		if _, ok := drives[g]; !ok {
			return &SensitivityViolationError{Module: name, Signal: p.names[g], Kind: "drive", Cycle: cycle}
		}
	}
	return nil
}

// SetSensitivityCheck enables (or disables) the dynamic sensitivity checker:
// while enabled, every signal read and write performed by a module's Eval
// under the sensitivity scheduler is recorded and cross-checked against the
// module's declared Sensitivity, and the first mismatch aborts Step with a
// *SensitivityViolationError. ReadsAll modules are exempt, as is the legacy
// kernel (SetLegacy), which has no declarations to audit.
//
// The checker is the runtime complement of the static `vidi-lint sensaudit`
// analyzer: the analyzer proves declaration hygiene for code it can resolve
// at compile time, the checker audits whatever actually executes — including
// dynamically constructed designs such as the fuzzer's. Results are
// unchanged with checking on, and it is cheap enough to leave on in tests.
func (s *Simulator) SetSensitivityCheck(on bool) {
	s.sensCheck = on
	s.invalidate()
}

// SensitivityCheck reports whether the dynamic sensitivity checker is on.
func (s *Simulator) SensitivityCheck() bool { return s.sensCheck }

// buildProbe compiles the declared-sensitivity lookup tables for the dynamic
// checker. Called from Build after sens has been resolved for every module.
func (s *Simulator) buildProbe(sens []Sensitivity) *sensProbe {
	p := &sensProbe{
		reads2:  make([]map[*sigcore]struct{}, len(sens)),
		drives2: make([]map[*sigcore]struct{}, len(sens)),
		names:   make(map[*sigcore]string, len(s.wires)+len(s.datas)),
	}
	for _, w := range s.wires {
		p.names[&w.sigcore] = w.name
	}
	for _, d := range s.datas {
		p.names[&d.sigcore] = d.name
	}
	for i := range sens {
		if sens[i].ReadsAll {
			continue // nil maps mark the exempt ReadsAll fallback
		}
		r := make(map[*sigcore]struct{}, len(sens[i].Reads))
		for _, sg := range sens[i].Reads {
			r[sg.sigmeta()] = struct{}{}
		}
		d := make(map[*sigcore]struct{}, len(sens[i].Drives))
		for _, sg := range sens[i].Drives {
			d[sg.sigmeta()] = struct{}{}
		}
		p.reads2[i], p.drives2[i] = r, d
	}
	return p
}
