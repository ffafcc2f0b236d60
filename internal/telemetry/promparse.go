package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsePrometheus reads a Prometheus text exposition (version 0.0.4) back
// into a Snapshot — the inverse of WritePrometheus. vidi-top -url uses it
// to render the snapshot tables against a live vidi-serve /metrics
// endpoint, so a running server needs no second exchange format.
//
// The parser accepts what WritePrometheus emits plus the usual latitude of
// the exposition format: families in any order, HELP optional, summary
// series reassembled from their quantile and _sum/_count lines. Sample
// names of no declared summary (undeclared names, a foreign exporter's
// histogram _bucket/_sum/_count lines) are folded in as untyped value
// series so a foreign exporter still renders.
func ParsePrometheus(r io.Reader) (*Snapshot, error) {
	p := &promParser{fams: map[string]*promFamily{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var err error
		if strings.HasPrefix(line, "#") {
			err = p.comment(line)
		} else {
			err = p.sample(line)
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: prometheus text line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: prometheus text: %w", err)
	}
	return p.snapshot(), nil
}

type promFamily struct {
	name   string
	help   string
	kind   string
	series map[string]*promSeries
}

type promSeries struct {
	labels map[string]string
	value  float64
	sum    float64
	count  uint64
	quants map[float64]float64
}

type promParser struct {
	fams map[string]*promFamily
}

func (p *promParser) family(name, kind string) *promFamily {
	f, ok := p.fams[name]
	if !ok {
		f = &promFamily{name: name, kind: kind, series: map[string]*promSeries{}}
		p.fams[name] = f
	}
	return f
}

// comment handles # HELP / # TYPE lines (other comments are skipped).
func (p *promParser) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		p.family(fields[2], fields[3]).kind = fields[3]
	case "HELP":
		rest := ""
		if len(fields) == 4 {
			rest = fields[3]
		}
		f := p.family(fields[2], "untyped")
		f.help = unescapeHelp(rest)
	}
	return nil
}

// sample handles one exposition sample line: name[{labels}] value.
func (p *promParser) sample(line string) error {
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd < 0 {
		return fmt.Errorf("no value in sample %q", line)
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	labels := map[string]string{}
	if rest[0] == '{' {
		close, err := parseLabels(rest, labels)
		if err != nil {
			return err
		}
		rest = rest[close:]
	}
	valStr := strings.TrimSpace(rest)
	// A timestamp may trail the value; take the first field only.
	if i := strings.IndexAny(valStr, " \t"); i >= 0 {
		valStr = valStr[:i]
	}
	val, err := parseValue(valStr)
	if err != nil {
		return fmt.Errorf("sample %q: %w", line, err)
	}

	// Summary expansion lines attach to their base family.
	for _, suffix := range []string{"_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if f, ok := p.fams[base]; ok && base != name && f.kind == "summary" {
			se := f.at(labels)
			if suffix == "_sum" {
				se.sum += val
			} else {
				se.count += uint64(val)
			}
			return nil
		}
	}

	// Summary quantile samples: name{quantile="0.99"} v on a declared
	// summary family.
	if f, ok := p.fams[name]; ok && f.kind == "summary" {
		qs, hasQ := labels["quantile"]
		if hasQ {
			q, err := strconv.ParseFloat(qs, 64)
			if err != nil {
				return fmt.Errorf("sample %q: bad quantile %q", line, qs)
			}
			delete(labels, "quantile")
			se := f.at(labels)
			if se.quants == nil {
				se.quants = map[float64]float64{}
			}
			se.quants[q] = val
			return nil
		}
	}

	f := p.family(name, "untyped")
	se := f.at(labels)
	se.value += val
	return nil
}

func (f *promFamily) at(labels map[string]string) *promSeries {
	key := labelSig(labels)
	se, ok := f.series[key]
	if !ok {
		se = &promSeries{labels: labels}
		f.series[key] = se
	}
	return se
}

// parseLabels parses a {k="v",...} block starting at s[0]=='{', filling
// into and returning the index just past the closing brace.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("malformed label block %q", s)
		}
		key := strings.TrimSpace(s[i : i+eq])
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %q: unquoted value in %q", key, s)
		}
		// Scan the quoted value honouring backslash escapes, then let
		// strconv.Unquote resolve them (the writer emits Go %q escaping,
		// a superset of the exposition rules for our ASCII values).
		j := i + 1
		for j < len(s) {
			if s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == '"' {
				break
			}
			j++
		}
		if j >= len(s) {
			return 0, fmt.Errorf("label %q: unterminated value in %q", key, s)
		}
		val, err := strconv.Unquote(s[i : j+1])
		if err != nil {
			return 0, fmt.Errorf("label %q: %w", key, err)
		}
		into[key] = val
		i = j + 1
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// labelSig is the canonical ordering key for a parsed label map.
func labelSig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0xff)
		b.WriteString(labels[k])
		b.WriteByte(0xfe)
	}
	return b.String()
}

// snapshot assembles the parsed families into the deterministic Snapshot
// ordering gather produces: families by name, series by label signature.
func (p *promParser) snapshot() *Snapshot {
	names := make([]string, 0, len(p.fams))
	for n := range p.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := &Snapshot{}
	for _, n := range names {
		f := p.fams[n]
		if len(f.series) == 0 {
			continue // TYPE/HELP with no samples
		}
		fs := FamilySnap{Name: f.name, Help: f.help, Kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			se := f.series[k]
			ss := SeriesSnap{Value: se.value, Sum: se.sum, Count: se.count}
			if len(se.labels) > 0 {
				ss.Labels = se.labels
			}
			if f.kind == "summary" && len(se.quants) > 0 {
				qs := make([]float64, 0, len(se.quants))
				for q := range se.quants {
					qs = append(qs, q)
				}
				sort.Float64s(qs)
				for _, q := range qs {
					ss.Quantiles = append(ss.Quantiles, QuantilePoint{Q: q, V: se.quants[q]})
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

func unescapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\n`, "\n")
	return strings.ReplaceAll(h, `\\`, `\`)
}
