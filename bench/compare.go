package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// specMetric is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json that -compare uses.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// probeDrift is how far the two sets' host probe medians may differ before
// -compare warns.
const probeDrift = 0.10

// compareFiles prints, for every end-to-end and hostTime metric and
// workload present in both results files, each side's median and
// quartiles over its untraced repetitions and a verdict: against the
// metric's bound from spec, or, for hostTime metrics, which have none, by
// separation alone. A row per workload compares the share of failed ops.
func compareFiles(w io.Writer, spec, aPath, bPath string) error {
	var s benchSpec
	var a, b resultsFile
	for path, v := range map[string]any{spec: &s, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	values := func(rf resultsFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rf.Runs {
			if r.Workload != workload || r.Traced {
				continue
			}
			for _, rep := range r.PerRep {
				if v, ok := rep[metric]; ok {
					xs = append(xs, v)
				}
			}
		}
		return xs
	}
	rows := s.EndToEnd
	for _, m := range s.PerLayer {
		if slices.ContainsFunc(hostTime, func(d metricDef) bool { return d.name == m.Name }) {
			rows = append(rows, m)
		}
	}
	fmt.Fprintf(w, "%-34s %-34s %-34s %8s %6s  %s\n", "metric{workload}", "A median [q1 q3] n", "B median [q1 q3] n", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range rows {
			av, bv := values(a, wl.name, m.Name), values(b, wl.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			bound := "none"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
			}
			fmt.Fprintf(w, "%-34s %-34s %-34s %+7.2f%% %6s  %s\n", m.Name+"{"+wl.name+"}",
				describe(av), describe(bv), 100*relChange(median(av), median(bv)), bound, verdict(av, bv, m.Bound, m.Better == "lower"))
		}
		if af, bf, ok := failedShares(a, b, wl.name); ok {
			v := "within-bound"
			if bf > af {
				v = "worse"
			}
			fmt.Fprintf(w, "%-34s %-34.6g %-34.6g %8s %6s  %s\n", "failed_share{"+wl.name+"}", af, bf, "", "0", v)
		}
		ap, bp := values(a, wl.name, "bench.host_probe_ms"), values(b, wl.name, "bench.host_probe_ms")
		if len(ap) > 0 && len(bp) > 0 && math.Abs(relChange(median(ap), median(bp))) > probeDrift {
			fmt.Fprintf(w, "warning: %s: the host probe differs between the sets (A %.3g ms, B %.3g ms): the host ran at another speed, so host-time verdicts compare different machines\n",
				wl.name, median(ap), median(bp))
		}
	}
	return nil
}

// failedShares returns, for one workload, the share of ops that failed
// over every untraced run of each file; ok is false when either file has
// no such run. A change that makes ops fail can make the ops left look
// faster, so more failures count as worse whatever the times say.
func failedShares(a, b resultsFile, workload string) (af, bf float64, ok bool) {
	share := func(rf resultsFile) (float64, bool) {
		attempted, failed := 0, 0
		for _, r := range rf.Runs {
			if r.Workload == workload && !r.Traced {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
		return float64(failed) / float64(max(attempted, 1)), attempted > 0
	}
	af, aok := share(a)
	bf, bok := share(b)
	return af, bf, aok && bok
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	return relChange(m, m+q3-q1)
}

func describe(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] %d", m, q1, q3, len(xs))
}

func relChange(from, to float64) float64 {
	if from == 0 {
		return to - from
	}
	return (to - from) / math.Abs(from)
}

// separationRuns is how many runs each side needs before "every run of one
// side beats every run of the other" decides a verdict. With ten a side,
// unchanged code separates by chance once in about 90,000 comparisons;
// with three, once in ten.
const separationRuns = 10

// verdict judges B against A. A spread (quartile distance over median, the
// wider side's) above the bound leaves it unresolved, unless each side has
// separationRuns runs and every run of one side beats every run of the
// other. Otherwise B is better or worse when its median moved by more than
// the bound, and within-bound when it did not.
func verdict(a, b []float64, bound float64, lowerIsBetter bool) string {
	sign := 1.0
	if lowerIsBetter {
		sign = -1
	}
	if max(spread(a), spread(b)) > bound {
		if len(a) < separationRuns || len(b) < separationRuns {
			return "unresolved"
		}
		aLo, aHi := slices.Min(a), slices.Max(a)
		bLo, bHi := slices.Min(b), slices.Max(b)
		switch {
		case lowerIsBetter && bHi < aLo, !lowerIsBetter && bLo > aHi:
			return "better"
		case lowerIsBetter && bLo > aHi, !lowerIsBetter && bHi < aLo:
			return "worse"
		}
		return "unresolved"
	}
	change := sign * relChange(median(a), median(b))
	switch {
	case change > bound:
		return "better"
	case change < -bound:
		return "worse"
	}
	return "within-bound"
}
