package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"vidi/internal/trace"
)

// Divergence describes one difference between a reference trace and a
// validation trace (§3.6). Vidi reports the transaction content, the output
// channel, and the context — which transactions completed on the offending
// channel before the divergence — so the developer can locate the
// cycle-dependent behaviour.
type Divergence struct {
	Kind    DivergenceKind
	Channel int
	Name    string
	Ordinal uint64 // transaction number on the channel
	// Reference and Validation carry the differing values (contents for
	// content divergences, counts for count divergences).
	Reference  []byte
	Validation []byte
	RefCount   uint64
	ValCount   uint64
	// Context lists the contents of the transactions that completed on the
	// channel immediately before the divergence.
	Context [][]byte
}

// DivergenceKind classifies a divergence.
type DivergenceKind int

const (
	// CountDivergence: an output channel produced a different number of
	// transactions.
	CountDivergence DivergenceKind = iota
	// ContentDivergence: a transaction carried different content.
	ContentDivergence
	// OrderDivergence: an end event violated a recorded happens-before
	// relation.
	OrderDivergence
)

// String implements fmt.Stringer.
func (k DivergenceKind) String() string {
	switch k {
	case CountDivergence:
		return "count"
	case ContentDivergence:
		return "content"
	default:
		return "order"
	}
}

// Format renders the divergence for the report.
func (d Divergence) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s divergence on channel %d (%s)", d.Kind, d.Channel, d.Name)
	switch d.Kind {
	case CountDivergence:
		fmt.Fprintf(&b, ": %d transactions recorded, %d replayed", d.RefCount, d.ValCount)
	case ContentDivergence:
		fmt.Fprintf(&b, ", transaction #%d: recorded %x, replayed %x", d.Ordinal, d.Reference, d.Validation)
	case OrderDivergence:
		fmt.Fprintf(&b, ", end event #%d replayed before a recorded predecessor", d.Ordinal)
	}
	if len(d.Context) > 0 {
		fmt.Fprintf(&b, "\n  context (previous transactions on the channel):")
		for i, c := range d.Context {
			fmt.Fprintf(&b, "\n    -%d: %x", len(d.Context)-i, c)
		}
	}
	return b.String()
}

// Report is the result of comparing a reference and a validation trace.
type Report struct {
	Divergences []Divergence
	// RefTransactions is the total number of transactions in the reference,
	// the denominator of the paper's divergence-per-transaction rates.
	RefTransactions uint64
	// Unrecorded is the number of output transactions that could not be
	// content-validated because either trace recorded them inside a degraded
	// (lossy) gap. They are not divergences — the events themselves were
	// recorded and replayed in order — but coverage was lost.
	Unrecorded uint64
}

// Clean reports whether no divergences were found.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

// String summarizes the report.
func (r *Report) String() string {
	var b strings.Builder
	if r.Clean() {
		fmt.Fprintf(&b, "no divergences in %d transactions", r.RefTransactions)
	} else {
		fmt.Fprintf(&b, "%d divergence(s) in %d transactions:\n", len(r.Divergences), r.RefTransactions)
		for _, d := range r.Divergences {
			b.WriteString(d.Format())
			b.WriteString("\n")
		}
	}
	if r.Unrecorded > 0 {
		if r.Clean() {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d transactions unrecorded (degraded)", r.Unrecorded)
	}
	return b.String()
}

// maxContext bounds the per-divergence context size.
const maxContext = 3

// Compare checks a validation trace (recorded while replaying) against the
// reference trace it replayed, implementing Vidi's two-step divergence
// detection (§3.6, §5.4): each output channel must produce the same number
// of transactions, each transaction the same content, and every replayed
// end event must respect the recorded happens-before relations.
func Compare(ref, val *trace.Trace) (*Report, error) {
	if !ref.Meta.ValidateOutputs || !val.Meta.ValidateOutputs {
		return nil, fmt.Errorf("core: divergence detection requires traces recorded with output validation")
	}
	if len(ref.Meta.Channels) != len(val.Meta.Channels) {
		return nil, fmt.Errorf("core: traces cover %d and %d channels", len(ref.Meta.Channels), len(val.Meta.Channels))
	}
	rep := &Report{RefTransactions: ref.TotalTransactions()}

	refEnds, valEnds := ref.ChannelEnds(), val.ChannelEnds()

	// Content and count comparison on output channels, whose transactions
	// are their end events.
	for _, ci := range ref.Meta.OutputChannels() {
		name := ref.Meta.Channels[ci].Name
		rt, vt := refEnds[ci], valEnds[ci]
		if len(rt) != len(vt) {
			rep.Divergences = append(rep.Divergences, Divergence{
				Kind: CountDivergence, Channel: ci, Name: name,
				RefCount: uint64(len(rt)), ValCount: uint64(len(vt)),
			})
		}
		n := min(len(rt), len(vt))
		for k := 0; k < n; k++ {
			// A nil content marks a transaction recorded inside a degraded
			// (lossy) gap: its end event is present — count and order checks
			// still cover it — but there is nothing to compare.
			if rt[k].Content == nil || vt[k].Content == nil {
				rep.Unrecorded++
				continue
			}
			if !bytes.Equal(rt[k].Content, vt[k].Content) {
				d := Divergence{
					Kind: ContentDivergence, Channel: ci, Name: name, Ordinal: uint64(k),
					Reference: rt[k].Content, Validation: vt[k].Content,
				}
				for j := max(k-maxContext, 0); j < k; j++ {
					d.Context = append(d.Context, rt[j].Content)
				}
				rep.Divergences = append(rep.Divergences, d)
			}
		}
	}

	// Ordering comparison: for each end event, the vector clock of strictly
	// earlier end events in the validation trace must dominate the
	// reference's. Transaction determinism promises exactly this relation.
	// The k-th end on channel ci, in reference packet p and validation packet
	// q, passes if every end recorded before packet p precedes packet q in
	// the validation trace too. A channel's ends are ordered in both traces,
	// so it is enough that the latest validation packet of those ends,
	// bound[p], is before q: one pass over the ends, not a clock per packet.
	bound := precededBy(ref.Len(), refEnds, valEnds)
	for ci, rt := range refEnds {
		vt := valEnds[ci]
		for k := 0; k < min(len(rt), len(vt)); k++ {
			if bound[rt[k].Packet] >= vt[k].Packet {
				rep.Divergences = append(rep.Divergences, Divergence{
					Kind: OrderDivergence, Channel: ci,
					Name: ref.Meta.Channels[ci].Name, Ordinal: uint64(k),
				})
			}
		}
	}
	return rep, nil
}

// precededBy returns, for each of a reference trace's n packets, the latest
// validation-trace packet holding an end event that the reference records in
// an earlier packet: -1 when there is none, and math.MaxInt when such an end
// is missing from the validation trace. The k-th end of a channel in one
// trace is matched with the k-th end of that channel in the other.
func precededBy(n int, refEnds, valEnds [][]trace.End) []int {
	bound := make([]int, n)
	for p := range bound {
		bound[p] = -1
	}
	// First, bound[p+1] holds the latest validation packet among the ends
	// in reference packet p; a running maximum then covers all earlier ones.
	for ci, rt := range refEnds {
		for k, e := range rt {
			if e.Packet+1 >= n {
				continue
			}
			q := math.MaxInt
			if k < len(valEnds[ci]) {
				q = valEnds[ci][k].Packet
			}
			bound[e.Packet+1] = max(bound[e.Packet+1], q)
		}
	}
	for p := 1; p < n; p++ {
		bound[p] = max(bound[p], bound[p-1])
	}
	return bound
}
