package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op; Parent indexes the span (in the same recorder) whose call caused
// this one, -1 for an op's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing, so the traced and untraced paths share their code.
type recorder struct {
	base  time.Time
	spans []span
	op    int64
}

func newRecorder(base time.Time, capacity int) *recorder {
	return &recorder{base: base, spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Start: int64(time.Since(r.base)), End: -1, Parent: parent, Op: r.op,
	})
	return int32(len(r.spans) - 1)
}

// end closes span i.
func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.base))
}

// startOp begins the root span of the next op.
func (r *recorder) startOp(id int64) int32 {
	if r == nil {
		return -1
	}
	r.op = id
	return r.begin("op", -1)
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Count   int64
	TotalNs int64 // sum of span durations
	SelfNs  int64 // sum of durations minus the time child spans cover
}

// selfTimes computes, per span name, the count, total and self time of
// spans. A span's self time is its duration minus the part of its
// interval covered by the union of its children (clipped to the span, so
// overlapping or overhanging children are not double-counted). Spans
// never closed are ignored.
func selfTimes(spans []span) map[string]*selfStat {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*selfStat{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		dur := s.End - s.Start
		covered := coveredNs(spans, children[i], s.Start, s.End)
		st := out[s.Name]
		if st == nil {
			st = &selfStat{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalNs += dur
		st.SelfNs += dur - covered
	}
	return out
}

// coveredNs returns the length of the union of the child intervals,
// clipped to [lo, hi].
func coveredNs(spans []span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if b < a {
			continue
		}
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerOf maps a span name to its layer: the prefix before the first
// dot. An op's root span is the benchmark's own glue between layer calls.
func layerOf(name string) string {
	if name == "op" {
		return "driver"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerShares sums self time per layer over the spans of complete ops and
// divides by the summed duration of the ops' root spans, so the shares
// of one op tree add up to 1.
func layerShares(stats map[string]*selfStat) map[string]float64 {
	var opNs float64
	if st := stats["op"]; st != nil {
		opNs = float64(st.TotalNs)
	}
	out := map[string]float64{}
	for name, st := range stats {
		out[layerOf(name)] += ratio(float64(st.SelfNs), opNs)
	}
	return out
}

// dumpSpans writes every span as one JSON line, tagged with its phase and
// worker, to path.
func dumpSpans(path string, phases map[string][]*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, phase := range names {
		for worker, r := range phases[phase] {
			for _, s := range r.spans {
				if err := enc.Encode(struct {
					Phase  string `json:"phase"`
					Worker int    `json:"worker"`
					span
				}{phase, worker, s}); err != nil {
					_ = f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// allSpans concatenates the spans of several recorders, rebasing parent
// indexes so each recorder's tree stays intact.
func allSpans(recs []*recorder) []span {
	var out []span
	for _, r := range recs {
		off := int32(len(out))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}
