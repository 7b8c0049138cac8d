package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus encodes a snapshot in the Prometheus text exposition
// format (version 0.0.4), the wire format of GET /metrics.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range s.Families {
		b.Reset()
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, ss := range f.Series {
			if f.Kind == KindHistogram.String() {
				writePromHistogram(&b, f, ss)
				continue
			}
			b.WriteString(f.Name)
			writeLabels(&b, f.Labels, ss.LabelValues, "")
			b.WriteByte(' ')
			b.WriteString(formatValue(ss.Value))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(b *strings.Builder, f FamilySnapshot, ss SeriesSnapshot) {
	for _, bk := range ss.Buckets {
		b.WriteString(f.Name)
		b.WriteString("_bucket")
		writeLabels(b, f.Labels, ss.LabelValues, formatValue(bk.LE))
		fmt.Fprintf(b, " %d\n", bk.Count)
	}
	b.WriteString(f.Name)
	b.WriteString("_bucket")
	writeLabels(b, f.Labels, ss.LabelValues, "+Inf")
	fmt.Fprintf(b, " %d\n", ss.Count)
	b.WriteString(f.Name)
	b.WriteString("_sum")
	writeLabels(b, f.Labels, ss.LabelValues, "")
	fmt.Fprintf(b, " %s\n", formatValue(ss.Sum))
	b.WriteString(f.Name)
	b.WriteString("_count")
	writeLabels(b, f.Labels, ss.LabelValues, "")
	fmt.Fprintf(b, " %d\n", ss.Count)
}

// writeLabels renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound label.
func writeLabels(b *strings.Builder, names, vals []string, le string) {
	if len(names) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatValue(v float64) string {
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

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// WriteJSON encodes the snapshot as indented JSON, the machine-readable
// sibling of the Prometheus text format (GET /metrics?format=json).
// Non-finite values are sanitized to keep the document valid JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	for fi := range s.Families {
		for si := range s.Families[fi].Series {
			ss := &s.Families[fi].Series[si]
			ss.Value = Finite(ss.Value)
			ss.Sum = Finite(ss.Sum)
			for q, v := range ss.Quantiles {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					ss.Quantiles[q] = 0
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Finite maps NaN and ±Inf to 0, keeping a value encodable:
// encoding/json rejects non-finite floats.
func Finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
