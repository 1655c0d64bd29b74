package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"viator/internal/trace"
)

// Dump is one run's exportable telemetry: the flight recorder's series,
// named histograms, the QoS scorecards and the run's structured trace
// ring. It holds the live sinks (not copies), so building a Dump is free
// and merging replicate dumps merges the underlying histograms exactly.
type Dump struct {
	Rec   *Recorder // may be nil
	Hists []NamedHist
	QoS   *ScoreSet  // may be nil
	Trace *trace.Log // may be nil; retained ring events export as "kind":"trace"
}

// NamedHist labels one histogram for export.
type NamedHist struct {
	Name string
	H    *Hist
}

// MergeDumps pools replicate dumps into one: histograms merge bucket-wise
// by name, scorecards merge by flow name. Recorder series are per-run
// trajectories and do not pool; the merged dump carries none. Dumps must
// be passed in a deterministic order (the replicate harness uses
// replicate index order) for the float sums to be byte-stable; all
// integer state is order-invariant regardless.
func MergeDumps(dumps []*Dump) *Dump {
	m := &Dump{QoS: NewScoreSet()}
	byName := make(map[string]*Hist)
	for _, d := range dumps {
		if d == nil {
			continue
		}
		for _, nh := range d.Hists {
			h, ok := byName[nh.Name]
			if !ok {
				h = NewHist()
				byName[nh.Name] = h
				m.Hists = append(m.Hists, NamedHist{Name: nh.Name, H: h})
			}
			h.Merge(nh.H)
		}
		if d.QoS != nil {
			m.QoS.MergeFrom(d.QoS)
		}
	}
	return m
}

// fnum renders a float for export: shortest round-trip representation,
// identical on every platform and invocation — the property the
// byte-identical determinism gates lean on.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jstr renders a JSON string literal (names here never need full
// escaping beyond quotes and backslashes, but handle them anyway).
func jstr(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`)
	return `"` + r.Replace(s) + `"`
}

// WriteJSONL emits the dump as JSON-lines: one object per line, streamable
// and grep-able. `tags` is rendered into every line verbatim (callers pass
// pre-formatted `"exp":"S1","rep":0` style tag fragments; empty means no
// tags). Line kinds:
//
//	{"kind":"series","name":…,"type":"counter|gauge","t":…,"v":…}
//	{"kind":"rollup","name":…,"t":…,"min":…,"mean":…,"max":…}
//	{"kind":"hist","name":…,"count":…,"mean":…,"min":…,"p50":…,"p95":…,"p99":…,"max":…}
//	{"kind":"flow","name":…,"sent":…,"delivered":…,"ratio":…,"p50":…,"p95":…,"p99":…,"slo_pass":…}
//	{"kind":"trace","t":…,"cat":…,"msg":…}
//
// The rollup and trace lines are rendered by WriteRollupLine and
// WriteTraceLine — the same functions the live server's stream uses — so
// batch dumps and the /api/v1/stream JSONL share one schema by
// construction.
//
// Output order is fixed (series in registration order, then rollups, then
// histograms, then flows, then the retained trace ring oldest-first), so
// equal dumps produce equal bytes.
func (d *Dump) WriteJSONL(w io.Writer, tags string) error {
	raw := tags
	if tags != "" {
		tags = "," + tags
	}
	if d.Rec != nil {
		for si := 0; si < d.Rec.NumSeries(); si++ {
			name, kind := jstr(d.Rec.SeriesName(si)), d.Rec.SeriesKind(si)
			var err error
			d.Rec.EachSample(si, func(t, v float64) {
				if err == nil {
					_, err = fmt.Fprintf(w, "{\"kind\":\"series\",\"name\":%s,\"type\":\"%s\"%s,\"t\":%s,\"v\":%s}\n",
						name, kind, tags, fnum(t), fnum(v))
				}
			})
			if err != nil {
				return err
			}
		}
		for si := 0; si < d.Rec.NumSeries(); si++ {
			name := d.Rec.SeriesName(si)
			var err error
			d.Rec.EachRollup(si, func(r Rollup) {
				if err == nil {
					err = WriteRollupLine(w, name, raw, r)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	for _, nh := range d.Hists {
		h := nh.H
		mn, mx := h.Min(), h.Max()
		if h.Count() == 0 {
			mn, mx = 0, 0
		}
		if _, err := fmt.Fprintf(w, "{\"kind\":\"hist\",\"name\":%s%s,\"count\":%d,\"mean\":%s,\"min\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}\n",
			jstr(nh.Name), tags, h.Count(), fnum(h.Mean()), fnum(mn),
			fnum(h.Quantile(0.50)), fnum(h.Quantile(0.95)), fnum(h.Quantile(0.99)), fnum(mx)); err != nil {
			return err
		}
	}
	if d.QoS != nil {
		for _, r := range d.QoS.Reports() {
			if _, err := fmt.Fprintf(w, "{\"kind\":\"flow\",\"name\":%s%s,\"sent\":%d,\"delivered\":%d,\"ratio\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"slo_pass\":%t}\n",
				jstr(r.Name), tags, r.Sent, r.Delivered, fnum(r.DeliveryRatio),
				fnum(r.P50), fnum(r.P95), fnum(r.P99), r.SLOPass); err != nil {
				return err
			}
		}
	}
	if d.Trace != nil {
		var err error
		d.Trace.EachSince(0, func(e trace.Event) {
			if err == nil {
				err = WriteTraceLine(w, raw, e)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteRollupLine renders one completed rollup window as a JSONL record.
// `tags` is a pre-formatted tag fragment (`"exp":"S1","rep":0` style,
// empty for none) rendered into the line verbatim. Batch dumps
// (WriteJSONL) and the live server's stream both emit rollups through
// this function, so the two surfaces share one schema.
func WriteRollupLine(w io.Writer, name, tags string, r Rollup) error {
	if tags != "" {
		tags = "," + tags
	}
	_, err := fmt.Fprintf(w, "{\"kind\":\"rollup\",\"name\":%s%s,\"t\":%s,\"min\":%s,\"mean\":%s,\"max\":%s}\n",
		jstr(name), tags, fnum(r.T), fnum(r.Min), fnum(r.Mean), fnum(r.Max))
	return err
}

// WriteTraceLine renders one structured trace event as a JSONL record,
// with the same tag convention as WriteRollupLine. Shared between batch
// dumps and the live stream.
func WriteTraceLine(w io.Writer, tags string, e trace.Event) error {
	if tags != "" {
		tags = "," + tags
	}
	_, err := fmt.Fprintf(w, "{\"kind\":\"trace\"%s,\"t\":%s,\"cat\":%s,\"msg\":%s}\n",
		tags, fnum(e.Time), jstr(e.Category), jstr(e.Message))
	return err
}

// promName sanitizes a series/hist name into a Prometheus metric suffix.
func promName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm emits a Prometheus text-format snapshot of one dump, every
// family under its `# TYPE` line.
//
//viator:api called by the bench module (bench/perf), outside this module
func (d *Dump) WriteProm(w io.Writer, labels string) error {
	return WritePromFamilies(w, PromFamilies(d, labels))
}

// promLabel joins a dump's label fragment with a sample's own labels
// into the final `{...}` block (empty when both are empty).
func promLabel(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// PromFamily is one metric family's pre-rendered contribution from a
// single dump: the family name, its `# TYPE` header line (empty for
// untyped families) and its sample lines. Families are the unit the
// live server stitches at scrape time: Prometheus exposition format
// requires all samples of one family to sit consecutively under a
// single TYPE line, so per-run text snapshots cannot be concatenated
// whole — WritePromFamilies regroups them by family instead.
type PromFamily struct {
	Name    string
	Header  []byte // "# TYPE ..." line, or empty
	Samples []byte
}

// PromFamilies renders one dump into per-family chunks: histograms as
// cumulative bucket series (non-empty buckets only, so the line count
// stays bounded), flows as counters plus quantile gauges, then each
// recorder series' latest sample. Families that would emit no samples
// are omitted. labels is the dump's Prometheus label fragment (e.g.
// `run="r1"`), applied to every sample. Every family carries a `# TYPE`
// header.
func PromFamilies(d *Dump, labels string) []PromFamily {
	var fams []PromFamily
	add := func(name, typ string, render func(w io.Writer)) {
		var buf bytes.Buffer
		render(&buf)
		if buf.Len() == 0 {
			return
		}
		hdr := []byte("# TYPE " + name + " " + typ + "\n")
		fams = append(fams, PromFamily{Name: name, Header: hdr, Samples: buf.Bytes()})
	}
	for _, nh := range d.Hists {
		name := "viator_" + promName(nh.Name)
		h := nh.H
		add(name, "histogram", func(w io.Writer) {
			cum := uint64(0)
			h.EachBucket(func(upper float64, count uint64) {
				cum += count
				fmt.Fprintf(w, "%s_bucket%s %d\n",
					name, promLabel(labels, `le="`+fnum(upper)+`"`), cum)
			})
			fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %s\n%s_count%s %d\n",
				name, promLabel(labels, `le="+Inf"`), h.Count(),
				name, promLabel(labels, ""), fnum(h.Sum()),
				name, promLabel(labels, ""), h.Count())
		})
	}
	eachFlow := func(w io.Writer, f func(w io.Writer, fl string, r FlowReport)) {
		if d.QoS == nil {
			return
		}
		for _, r := range d.QoS.Reports() {
			f(w, `flow="`+promName(r.Name)+`"`, r)
		}
	}
	add("viator_flow_sent_total", "counter", func(w io.Writer) {
		eachFlow(w, func(w io.Writer, fl string, r FlowReport) {
			fmt.Fprintf(w, "viator_flow_sent_total%s %d\n", promLabel(labels, fl), r.Sent)
		})
	})
	add("viator_flow_delivered_total", "counter", func(w io.Writer) {
		eachFlow(w, func(w io.Writer, fl string, r FlowReport) {
			fmt.Fprintf(w, "viator_flow_delivered_total%s %d\n", promLabel(labels, fl), r.Delivered)
		})
	})
	add("viator_flow_delivery_ratio", "gauge", func(w io.Writer) {
		eachFlow(w, func(w io.Writer, fl string, r FlowReport) {
			fmt.Fprintf(w, "viator_flow_delivery_ratio%s %s\n", promLabel(labels, fl), fnum(r.DeliveryRatio))
		})
	})
	add("viator_flow_latency_seconds", "gauge", func(w io.Writer) {
		eachFlow(w, func(w io.Writer, fl string, r FlowReport) {
			for _, qv := range [...]struct {
				q string
				v float64
			}{{"0.5", r.P50}, {"0.95", r.P95}, {"0.99", r.P99}} {
				fmt.Fprintf(w, "viator_flow_latency_seconds%s %s\n",
					promLabel(labels, fl+`,quantile="`+qv.q+`"`), fnum(qv.v))
			}
		})
	})
	add("viator_flow_slo_pass", "gauge", func(w io.Writer) {
		eachFlow(w, func(w io.Writer, fl string, r FlowReport) {
			pass := uint64(0)
			if r.SLOPass {
				pass = 1
			}
			fmt.Fprintf(w, "viator_flow_slo_pass%s %d\n", promLabel(labels, fl), pass)
		})
	})
	add("viator_series_last", "gauge", func(w io.Writer) {
		if d.Rec == nil {
			return
		}
		for si := 0; si < d.Rec.NumSeries(); si++ {
			fmt.Fprintf(w, "viator_series_last%s %s\n",
				promLabel(labels, `name="`+promName(d.Rec.SeriesName(si))+`",type="`+d.Rec.SeriesKind(si).String()+`"`),
				fnum(d.Rec.Last(si)))
		}
	})
	return fams
}

// WritePromFamilies stitches pre-rendered family chunks from several
// sources (one group per run, say) into a single valid exposition-format
// snapshot: families are merged by name in first-seen order, each
// family's header is written once, and every group's samples for that
// family follow consecutively, so the groups' label fragments tell their
// samples apart and one file can snapshot several runs or experiments.
func WritePromFamilies(w io.Writer, groups ...[]PromFamily) error {
	var order []string
	byName := make(map[string][]*PromFamily)
	for _, g := range groups {
		for i := range g {
			f := &g[i]
			if _, ok := byName[f.Name]; !ok {
				order = append(order, f.Name)
			}
			byName[f.Name] = append(byName[f.Name], f)
		}
	}
	for _, name := range order {
		chunks := byName[name]
		for _, c := range chunks {
			if len(c.Header) != 0 {
				if _, err := w.Write(c.Header); err != nil {
					return err
				}
				break
			}
		}
		for _, c := range chunks {
			if _, err := w.Write(c.Samples); err != nil {
				return err
			}
		}
	}
	return nil
}
