package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"

	"extscc/internal/iomodel"
	"extscc/internal/prof"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function.  Start and End are offsets from the tracer's
// origin; IO is the accounted block I/O charged while the span was open.
// An aggregate span folds Count spans of one internal/prof phase that ran
// inside a timed call (the engine's sort, merge, stage, label, contract and
// expand spans): prof keeps only their Total, so the aggregate is a leaf laid
// out from its parent's start, after its earlier aggregate siblings, and
// clipped to the parent.  Its Total can exceed the layout when the folded
// spans ran concurrently.
type span struct {
	ID        int              `json:"id"`
	Parent    int              `json:"parent"`
	Name      string           `json:"name"`
	Start     time.Duration    `json:"start_ns"`
	End       time.Duration    `json:"end_ns"`
	IO        iomodel.Snapshot `json:"io"`
	Count     int64            `json:"count,omitempty"`
	Aggregate bool             `json:"aggregate,omitempty"`
	Total     time.Duration    `json:"total_ns,omitempty"`

	io0 iomodel.Snapshot
}

func (s span) dur() time.Duration { return s.End - s.Start }

// noParent is the parent of a root span.
const noParent = -1

// tracer keeps the spans of one traced sample in memory.  It is used from a
// single goroutine.  A nil tracer records nothing, so the same code runs a
// sample bare or traced.
type tracer struct {
	origin time.Time
	stats  *iomodel.Stats
	spans  []span
	// aggEnd is where the next aggregate child of a span is laid out.
	aggEnd map[int]time.Duration
}

func newTracer(stats *iomodel.Stats) *tracer {
	return &tracer{origin: time.Now(), stats: stats, aggEnd: map[int]time.Duration{}}
}

// begin opens a span named name under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noParent
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin), io0: t.stats.Snapshot()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.origin)
	s.IO = t.stats.Snapshot().Sub(s.io0)
}

// call runs fn inside a span named name with a fresh prof profile attached
// to cfg, then records the profile's phases as aggregate children of the
// span.
func (t *tracer) call(name string, parent int, cfg iomodel.Config, fn func(iomodel.Config) error) error {
	if t == nil {
		return fn(cfg)
	}
	cfg.Prof = prof.New()
	id := t.begin(name, parent)
	err := fn(cfg)
	t.end(id)
	t.addPhases(id, cfg.Prof.Snapshot())
	return err
}

// profSpanNames maps the engine's internal/prof phases onto this
// benchmark's layer names.
var profSpanNames = map[string]string{
	"sort": "extsort.sort", "merge": "extsort.merge", "stage": "extscc.stage",
	"contract": "contraction", "label": "semiscc", "expand": "expansion",
}

// addPhases adds the phases of a prof snapshot as aggregate children of span
// parent.
func (t *tracer) addPhases(parent int, phases []prof.PhaseStats) {
	for _, ph := range phases {
		if name, ok := profSpanNames[ph.Name]; ok {
			t.aggregate(parent, name, ph.Count, ph.Wall)
		}
	}
}

// aggregate records count spans totalling wall as one child of parent.
func (t *tracer) aggregate(parent int, name string, count int64, wall time.Duration) {
	p := t.spans[parent]
	start, ok := t.aggEnd[parent]
	if !ok {
		start = p.Start
	}
	end := min(start+wall, p.End)
	t.aggEnd[parent] = end
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: start, End: end, Count: count, Aggregate: true, Total: wall})
}

// selfTimes returns, per span id, the span's duration minus the part of it
// that its children cover.  Overlapping children count once, and a child's
// part outside its parent does not count.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to parent.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
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

// layerTotal sums, per span name, the inclusive time, the self time, the
// span count and the accounted block I/Os.  An aggregate counts its Total as
// both inclusive and self time.
type layerTotal struct {
	Incl, Self time.Duration
	Count      int64
	IOs        int64
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.IOs += s.IO.TotalIOs()
		if s.Aggregate {
			lt.Incl += s.Total
			lt.Self += s.Total
			lt.Count += s.Count
		} else {
			lt.Incl += s.dur()
			lt.Self += self[i]
			lt.Count++
		}
		out[s.Name] = lt
	}
	return out
}

// writeChromeTrace writes the spans as Chrome Trace Event JSON (complete
// "X" events in microseconds), loadable in chrome://tracing and Perfetto.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		cat := "layer"
		if s.Aggregate {
			cat = "aggregate"
		}
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: 1,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "self_us": us(self[i]), "count": max(s.Count, 1),
				"read_blocks": s.IO.ReadBlocks, "write_blocks": s.IO.WriteBlocks, "random_reads": s.IO.RandomReads,
				"bytes_read": s.IO.BytesRead, "bytes_written": s.IO.BytesWritten,
			},
		})
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
