package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), derived from the same data as the JSON snapshot:
//
//   - counters and gauges verbatim;
//   - histograms as <name>_bucket{le="..."} cumulative series plus _sum and
//     _count (the power-of-two upper bounds become le labels); buckets with
//     a recorded exemplar carry it in OpenMetrics exemplar syntax
//     (`... # {trace_id="..."} value`), which 0.0.4 scrapers treat as
//     ignorable and OpenMetrics scrapers link to traces;
//   - span aggregates as <name>_spans_count / _spans_total_us /
//     _spans_max_us counters, with span labels ({k=v}) mapped to Prometheus
//     labels.
//
// Metric names have non-identifier characters folded to '_'
// ("query.eval.calls" → "query_eval_calls"). Output order is
// deterministic: sections in the order above, names sorted within each.
func (s Snapshot) WritePrometheus(w io.Writer) {
	for _, name := range sortedKeys(s.Counters) {
		n := promName(name)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", n, helpText(name), n, n, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := promName(name)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", n, helpText(name), n, n, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		n := promName(name)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", n, helpText(name), n)
		cum := int64(0)
		for _, b := range sortedBounds(h.Buckets) {
			cum += h.Buckets[b.label]
			if ex, ok := h.Exemplars[b.label]; ok && ex.TraceID != "" {
				// OpenMetrics exemplar syntax: the trailing `# {labels} value`
				// links the bucket to a recent request's trace.
				fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d # {trace_id=%q} %d\n",
					n, b.label, cum, ex.TraceID, ex.Value)
				continue
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", n, b.label, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
	typed := map[string]bool{}
	for _, name := range sortedKeys(s.Spans) {
		sp := s.Spans[name]
		base, labels := splitSpanKey(name)
		n := promName(base)
		if !typed[n] {
			typed[n] = true
			fmt.Fprintf(w, "# HELP %s_spans_count %s\n# TYPE %s_spans_count counter\n", n, helpText(base), n)
			fmt.Fprintf(w, "# HELP %s_spans_total_us %s\n# TYPE %s_spans_total_us counter\n", n, helpText(base), n)
			fmt.Fprintf(w, "# HELP %s_spans_max_us %s\n# TYPE %s_spans_max_us gauge\n", n, helpText(base), n)
		}
		fmt.Fprintf(w, "%s_spans_count%s %d\n", n, labels, sp.Count)
		fmt.Fprintf(w, "%s_spans_total_us%s %d\n", n, labels, sp.TotalUS)
		fmt.Fprintf(w, "%s_spans_max_us%s %d\n", n, labels, sp.MaxUS)
	}
}

// helpText returns the metric's help line, escaped per the exposition
// format (backslash and newline are the only characters HELP escapes).
func helpText(name string) string {
	h := helpFor(name)
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// promName folds a dotted metric name into a valid Prometheus identifier.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitSpanKey separates a span aggregation key "path{k=v}{k2=v2}" into its
// path and a rendered Prometheus label set ("" when unlabeled).
func splitSpanKey(key string) (base, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	base = key[:i]
	var parts []string
	for _, seg := range strings.Split(key[i:], "}") {
		seg = strings.TrimPrefix(seg, "{")
		if seg == "" {
			continue
		}
		k, v, found := strings.Cut(seg, "=")
		if !found {
			k, v = "label", seg
		}
		parts = append(parts, fmt.Sprintf("%s=%q", promName(k), v))
	}
	if len(parts) == 0 {
		return base, ""
	}
	return base, "{" + strings.Join(parts, ",") + "}"
}

// boundEntry pairs a histogram bucket label with its numeric value for
// sorting.
type boundEntry struct {
	label string
	value uint64
}

// sortedBounds orders the histogram bucket labels numerically.
func sortedBounds(buckets map[string]int64) []boundEntry {
	out := make([]boundEntry, 0, len(buckets))
	for label := range buckets {
		v, err := strconv.ParseUint(label, 10, 64)
		if err != nil {
			v = 0
		}
		out = append(out, boundEntry{label: label, value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}
