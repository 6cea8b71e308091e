package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one family per metric, sorted by exposition
// name, each preceded by its # HELP (when registered via Registry.SetHelp)
// and # TYPE lines. Histograms emit the standard _bucket/_sum/_count
// triplet with cumulative bucket counts and an explicit le="+Inf" bucket;
// labeled histogram families render every series with escaped label
// values.
//
// Metric names are sanitized for Prometheus (every character outside
// [a-zA-Z0-9_:] becomes '_'), so "paqoc.stage_ms" is scraped as
// "paqoc_stage_ms".
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var fams []promFamily

	for name, v := range s.Counters {
		fams = append(fams, promFamily{
			name: promName(name), orig: name, typ: "counter",
			lines: []string{fmt.Sprintf("%s %d", promName(name), v)},
		})
	}
	for name, v := range s.Gauges {
		fams = append(fams, promFamily{
			name: promName(name), orig: name, typ: "gauge",
			lines: []string{fmt.Sprintf("%s %s", promName(name), promFloat(v))},
		})
	}
	for name, h := range s.Histograms {
		fams = append(fams, promFamily{
			name: promName(name), orig: name, typ: "histogram",
			lines: promHistogramLines(promName(name), nil, nil, h),
		})
	}
	for name, fam := range s.HistogramVecs {
		pf := promFamily{name: promName(name), orig: name, typ: "histogram"}
		for _, se := range fam.Series {
			pf.lines = append(pf.lines, promHistogramLines(pf.name, fam.Labels, se.Values, se.HistogramSnapshot)...)
		}
		fams = append(fams, pf)
	}

	sort.Slice(fams, func(i, j int) bool {
		if fams[i].name != fams[j].name {
			return fams[i].name < fams[j].name
		}
		return fams[i].orig < fams[j].orig
	})
	for _, f := range fams {
		if help := s.help[f.orig]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, promHelp(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// promFamily is one metric family ready to print.
type promFamily struct {
	name  string // sanitized exposition name
	orig  string // registry name (help lookup, tie-break)
	typ   string
	lines []string
}

// promHistogramLines renders the _bucket/_sum/_count triplet for one
// (possibly labeled) histogram series. Bucket counts are cumulative, as
// the exposition format requires; the snapshot stores per-bucket counts.
func promHistogramLines(name string, labels, values []string, h HistogramSnapshot) []string {
	lines := make([]string, 0, len(h.Buckets)+2)
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(b.Le, 1) {
			le = promFloat(b.Le)
		}
		lines = append(lines, fmt.Sprintf("%s_bucket%s %d", name, promLabels(labels, values, "le", le), cum))
	}
	lines = append(lines,
		fmt.Sprintf("%s_sum%s %s", name, promLabels(labels, values, "", 0), promFloat(h.Sum)),
		fmt.Sprintf("%s_count%s %d", name, promLabels(labels, values, "", 0), h.Count))
	return lines
}

// promLabels renders a {k="v",...} label block (plus an optional extra
// label such as le) or "" when there are no labels at all.
func promLabels(labels, values []string, extraKey string, extraVal any) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(promName(l))
		b.WriteString(`="`)
		b.WriteString(PromEscape(v))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(PromEscape(fmt.Sprint(extraVal)))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// PromEscape escapes a label value for the text exposition format:
// backslash, double quote, and newline get backslash escapes.
func PromEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// PromUnescape inverts PromEscape (used by tests to round-trip values).
func PromUnescape(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	b.Grow(len(v))
	esc := false
	for _, r := range v {
		if esc {
			switch r {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteRune(r)
			}
			esc = false
			continue
		}
		if r == '\\' {
			esc = true
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// promHelp escapes a help string (backslash and newline only, per spec).
func promHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promName sanitizes a registry name into a valid Prometheus metric or
// label name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the way Prometheus clients do: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
