package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"vidi/internal/sim"
	"vidi/internal/trace"
)

// Diagnose inspects a divergence report together with its reference trace
// and points the developer at the likely cycle-dependent construct — the
// automation the paper describes for the DRAM-DMA case (§3.6): "Vidi
// automatically identifies the problem when configured to test for replay
// divergences. It reports transaction content, the output channel, and the
// context... Using Vidi's report, we identify the code causing
// cycle-dependent behavior."
//
// The built-in heuristics cover the divergence source the paper observed:
//
//   - Polling: content divergences on a narrow MMIO read-response channel
//     whose recorded contents repeat a value and then step to another
//     (status-register polling). The recommendation is the paper's 10-line
//     patch: replace the poll with a completion interrupt.
//   - Cascade: content divergences on wide data channels that follow a
//     polling diagnosis are flagged as downstream effects rather than
//     independent bugs.
func Diagnose(rep *Report, ref *trace.Trace) []Finding {
	if rep.Clean() {
		return nil
	}
	// Group divergences by channel.
	byChan := map[int][]Divergence{}
	for _, d := range rep.Divergences {
		byChan[d.Channel] = append(byChan[d.Channel], d)
	}
	chans := make([]int, 0, len(byChan))
	for ci := range byChan {
		chans = append(chans, ci)
	}
	sort.Ints(chans)

	var findings []Finding
	pollingFound := false
	txns := ref.AllTransactions()
	for _, ci := range chans {
		ds := byChan[ci]
		info := ref.Meta.Channels[ci]
		if info.Width <= 8 && info.Dir == trace.Output && looksLikePolling(txns[ci]) {
			pollingFound = true
			findings = append(findings, Finding{
				Kind:    PollingSuspect,
				Channel: info.Name,
				Count:   len(ds),
				Detail: fmt.Sprintf(
					"recorded contents on %s repeat a value then step (status polling); "+
						"replay re-times the polls, so the polled value diverges. "+
						"Convert the poll to a cycle-independent completion interrupt.",
					info.Name),
			})
		}
	}
	for _, ci := range chans {
		ds := byChan[ci]
		info := ref.Meta.Channels[ci]
		if info.Width > 8 && pollingFound {
			findings = append(findings, Finding{
				Kind:    DownstreamEffect,
				Channel: info.Name,
				Count:   len(ds),
				Detail: fmt.Sprintf(
					"%d content divergence(s) on %s follow the polling divergence and are "+
						"likely its downstream effect, not an independent bug", len(ds), info.Name),
			})
		} else if !pollingFound {
			findings = append(findings, Finding{
				Kind:    Unexplained,
				Channel: info.Name,
				Count:   len(ds),
				Detail: fmt.Sprintf("%d divergence(s) on %s with no recognized cycle-dependent "+
					"pattern; inspect the channel's transaction context", len(ds), info.Name),
			})
		}
	}
	return findings
}

// DiagnoseRunError interprets a simulation error — a structured deadlock, a
// permanent store transport fault, or trace corruption — into findings that
// name the failing component instead of leaving the developer with a bare
// error string.
func DiagnoseRunError(err error) []Finding {
	if err == nil {
		return nil
	}
	var dl *sim.DeadlockError
	if errors.As(err, &dl) {
		var findings []Finding
		if len(dl.Stuck) == 0 {
			findings = append(findings, Finding{
				Kind:    DeadlockSuspect,
				Channel: "(none in flight)",
				Detail: fmt.Sprintf("no handshake fired since cycle %d and no channel is in flight; "+
					"the design is idle-wedged (e.g. the CPU agent or a DMA engine stopped issuing work)", dl.LastFire),
			})
			return findings
		}
		for _, ch := range dl.Stuck {
			findings = append(findings, Finding{
				Kind:    DeadlockSuspect,
				Channel: ch.Name,
				Count:   1,
				Detail: fmt.Sprintf("handshake started at cycle %d and never completed (watchdog at cycle %d); "+
					"the receiver is withholding READY — check back-pressure on this channel's path", ch.Since, dl.Cycle),
			})
		}
		return findings
	}
	var sf *StoreFaultError
	if errors.As(err, &sf) {
		return []Finding{{
			Kind:    StoreFault,
			Channel: "trace-store",
			Count:   sf.Attempts,
			Detail: fmt.Sprintf("storage transport failed %d consecutive transfers (retry budget exhausted at "+
				"store cycle %d); the outage exceeds what retry-with-backoff can ride out — "+
				"record with degraded mode or repair the link", sf.Attempts, sf.Cycle),
		}}
	}
	if errors.Is(err, trace.ErrCorrupt) {
		return []Finding{{
			Kind:    CorruptTrace,
			Channel: "trace",
			Count:   1,
			Detail: fmt.Sprintf("trace failed integrity checks (%v); the CRC framing caught transport or "+
				"storage corruption — re-record rather than replaying a damaged trace", err),
		}}
	}
	return []Finding{{
		Kind:    Unexplained,
		Channel: "run",
		Count:   1,
		Detail:  fmt.Sprintf("run failed: %v", err),
	}}
}

// FindingKind classifies a diagnosis.
type FindingKind int

// Diagnosis categories.
const (
	PollingSuspect FindingKind = iota
	DownstreamEffect
	Unexplained
	// DeadlockSuspect names a channel left in flight when the simulation
	// watchdog fired.
	DeadlockSuspect
	// StoreFault reports a permanent trace-store transport failure.
	StoreFault
	// CorruptTrace reports a trace that failed its CRC integrity checks.
	CorruptTrace
)

// String implements fmt.Stringer.
func (k FindingKind) String() string {
	switch k {
	case PollingSuspect:
		return "polling-suspect"
	case DownstreamEffect:
		return "downstream-effect"
	case DeadlockSuspect:
		return "deadlock-suspect"
	case StoreFault:
		return "store-fault"
	case CorruptTrace:
		return "corrupt-trace"
	default:
		return "unexplained"
	}
}

// Finding is one diagnosis derived from a divergence report.
type Finding struct {
	Kind    FindingKind
	Channel string
	Count   int
	Detail  string
}

// Format renders the finding.
func (f Finding) Format() string {
	return fmt.Sprintf("[%s] %s: %s", f.Kind, f.Channel, f.Detail)
}

// FormatFindings renders a diagnosis list.
func FormatFindings(fs []Finding) string {
	if len(fs) == 0 {
		return "no divergences to diagnose"
	}
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.Format())
		b.WriteString("\n")
	}
	return b.String()
}

// looksLikePolling reports whether a channel's recorded transaction
// contents resemble a polled status register: scalar values that repeat and
// then step at least once (e.g. 0,0,0,1,0,0,1,...).
func looksLikePolling(txns []trace.Txn) bool {
	if len(txns) < 2 {
		return false
	}
	repeats, steps := 0, 0
	var prev uint64
	for i, tx := range txns {
		if tx.Content == nil {
			return false
		}
		v := scalarOf(tx.Content)
		if i > 0 {
			if v == prev {
				repeats++
			} else {
				steps++
			}
		}
		prev = v
	}
	// Polling shows both: runs of an unchanged value and at least one step.
	return repeats >= 1 && steps >= 1
}

func scalarOf(b []byte) uint64 {
	var buf [8]byte
	copy(buf[:], b)
	return binary.LittleEndian.Uint64(buf[:])
}
