// Package profile analyzes Vidi traces for performance debugging — one of
// the record/replay use cases the paper motivates (§1: "optimize
// performance through better profiling"). Working purely from a recorded
// trace, it derives per-channel traffic statistics, transaction latencies
// (start→end distance for input channels), burstiness, and cross-channel
// concurrency, without re-running the design.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"vidi/internal/telemetry"
	"vidi/internal/trace"
)

// ChannelStats summarizes one channel's traffic.
type ChannelStats struct {
	Name string
	Dir  trace.Direction
	// Transactions is the number of completed handshakes.
	Transactions uint64
	// Bytes is the payload volume carried (transactions × width).
	Bytes uint64
	// Latency summarizes start→end distance in event-cycles (cycle packets
	// between the start and the end; 0 = single-cycle handshake). Only
	// meaningful for input channels, whose starts are recorded.
	Latency Histogram
	// InterEnd summarizes the gaps between consecutive end events on the
	// channel, in cycle packets.
	InterEnd Histogram
}

// Histogram is the shared nearest-rank sample summary (ceil-rank
// percentiles), so trace profiling and live telemetry agree on
// definitions.
type Histogram = telemetry.Summary

func histogram(samples []int) Histogram { return telemetry.Summarize(samples) }

// Profile is the result of analyzing one trace.
type Profile struct {
	Channels []ChannelStats
	// Packets is the number of event-cycles in the trace.
	Packets int
	// TotalTransactions across all channels.
	TotalTransactions uint64
	// Concurrency is the mean number of events per event-cycle; values
	// well above 1 indicate heavily overlapped traffic.
	Concurrency float64
	// BusiestPair names the two channels whose end events most often share
	// a cycle packet — the tightest coupling in the design's I/O.
	BusiestPair      [2]string
	BusiestPairCount int
}

// Analyze computes a profile from a trace.
func Analyze(t *trace.Trace) *Profile {
	m := t.Meta
	p := &Profile{Packets: t.Len()}
	nCh := m.NumChannels()

	lat := make([][]int, nCh)
	gaps := make([][]int, nCh)
	lastEnd := make([]int, nCh)
	for i := range lastEnd {
		lastEnd[i] = -1
	}
	events := 0
	pairCounts := map[[2]int]int{}

	for ci, txns := range t.AllTransactions() {
		for _, tx := range txns {
			if tx.StartPacket >= 0 && tx.EndPacket >= 0 {
				lat[ci] = append(lat[ci], tx.EndPacket-tx.StartPacket)
			}
		}
	}
	for pi := 0; pi < t.Len(); pi++ {
		pkt := t.Packet(pi)
		var endsHere []int
		for ci := pkt.Ends.Next(0); ci >= 0; ci = pkt.Ends.Next(ci + 1) {
			endsHere = append(endsHere, ci)
			if lastEnd[ci] >= 0 {
				gaps[ci] = append(gaps[ci], pi-lastEnd[ci])
			}
			lastEnd[ci] = pi
		}
		events += len(endsHere) + pkt.Starts.Count()
		for i := 0; i < len(endsHere); i++ {
			for j := i + 1; j < len(endsHere); j++ {
				pairCounts[[2]int{endsHere[i], endsHere[j]}]++
			}
		}
	}

	counts := t.EndCounts()
	for ci, info := range m.Channels {
		p.TotalTransactions += counts[ci]
		p.Channels = append(p.Channels, ChannelStats{
			Name:         info.Name,
			Dir:          info.Dir,
			Transactions: counts[ci],
			Bytes:        counts[ci] * uint64(info.Width),
			Latency:      histogram(lat[ci]),
			InterEnd:     histogram(gaps[ci]),
		})
	}
	if p.Packets > 0 {
		p.Concurrency = float64(events) / float64(p.Packets)
	}
	best, bestN := [2]int{-1, -1}, 0
	for pair, n := range pairCounts {
		if n > bestN || (n == bestN && (best[0] == -1 || pair[0] < best[0])) {
			best, bestN = pair, n
		}
	}
	if bestN > 0 {
		p.BusiestPair = [2]string{m.Channels[best[0]].Name, m.Channels[best[1]].Name}
		p.BusiestPairCount = bestN
	}
	return p
}

// TopTalkers returns the n channels carrying the most payload bytes.
func (p *Profile) TopTalkers(n int) []ChannelStats {
	s := append([]ChannelStats(nil), p.Channels...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Bytes > s[j].Bytes })
	if n > len(s) {
		n = len(s)
	}
	return s[:n]
}

// String renders the profile as a report.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace profile: %d event-cycles, %d transactions, concurrency %.2f events/cycle\n",
		p.Packets, p.TotalTransactions, p.Concurrency)
	if p.BusiestPairCount > 0 {
		fmt.Fprintf(&b, "tightest coupling: %s ↔ %s complete together in %d cycles\n",
			p.BusiestPair[0], p.BusiestPair[1], p.BusiestPairCount)
	}
	fmt.Fprintf(&b, "%-12s %-6s %8s %10s   %-42s %s\n", "channel", "dir", "txns", "bytes", "latency (event-cycles)", "inter-end gap")
	for _, c := range p.Channels {
		if c.Transactions == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %-6s %8d %10d   %-42s %s\n",
			c.Name, c.Dir, c.Transactions, c.Bytes, c.Latency.String(), c.InterEnd.String())
	}
	return b.String()
}
