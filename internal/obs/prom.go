package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): `# HELP` and `# TYPE` lines
// followed by that family's samples, families sorted by name, label
// values escaped per the spec. Histograms emit cumulative
// `_bucket{le="..."}` series ending in `le="+Inf"` equal to `_count`,
// plus `_sum` and `_count`.
//
// Integer-backed samples render as plain decimals (so a test looking
// for `geoserve_uploads_total 1` keeps matching); float samples render
// with %g.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var sb strings.Builder
	for _, f := range fams {
		sb.Reset()
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			writeIntSample(&sb, f.name, nil, f.counter.Value())
		case f.intFunc != nil:
			writeIntSample(&sb, f.name, nil, f.intFunc())
		case f.floatFunc != nil:
			writeFloatSample(&sb, f.name, nil, f.floatFunc())
		case f.sampleFunc != nil:
			for _, s := range f.sampleFunc() {
				if s.Int {
					writeIntSample(&sb, f.name, s.Labels, int64(s.Value))
				} else {
					writeFloatSample(&sb, f.name, s.Labels, s.Value)
				}
			}
		case f.counterVec != nil:
			for _, k := range f.counterVec.vec.sortedKeys() {
				c := f.counterVec.With(strings.Split(k, "\x00")...)
				writeIntSample(&sb, f.name, f.counterVec.vec.labelsFor(k), c.Value())
			}
		case f.histVec != nil:
			hv := f.histVec
			for _, k := range hv.vec.sortedKeys() {
				var base []Label
				var h *Histogram
				if hv.vec.names == nil { // plain histogram registered via NewHistogram
					h = hv.vec.children[k].(*Histogram)
				} else {
					base = hv.vec.labelsFor(k)
					h = hv.With(strings.Split(k, "\x00")...)
				}
				snap := h.Snapshot()
				var cum int64
				for i, ub := range snap.Uppers {
					cum += snap.Counts[i]
					writeIntSample(&sb, f.name+"_bucket", append(append([]Label(nil), base...), Label{"le", formatLe(ub)}), cum)
				}
				writeIntSample(&sb, f.name+"_bucket", append(append([]Label(nil), base...), Label{"le", "+Inf"}), snap.Count)
				writeFloatSample(&sb, f.name+"_sum", base, snap.Sum)
				writeIntSample(&sb, f.name+"_count", base, snap.Count)
			}
		}
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeIntSample(sb *strings.Builder, name string, labels []Label, v int64) {
	sb.WriteString(name)
	writeLabels(sb, labels)
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatInt(v, 10))
	sb.WriteByte('\n')
}

func writeFloatSample(sb *strings.Builder, name string, labels []Label, v float64) {
	sb.WriteString(name)
	writeLabels(sb, labels)
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
}

func writeLabels(sb *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// formatFloat renders a sample value: NaN/±Inf per spec, else %g.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a bucket bound for the le label. Integral bounds
// render without an exponent so buckets read naturally (e.g. 1024).
func formatLe(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
