// Package prof measures where a run spends its time: named phases with
// wall-clock, allocation and heap-delta capture.  The engine opens a span
// around each phase of the pipeline (staging, contraction iterations,
// sort/merge, labelling, expansion, index build); spans of the same name
// aggregate, so a phase that runs many times — one contraction iteration per
// level, one merge per sort — reports its total cost and how often it ran.
//
// A nil *Profile is valid everywhere and measures nothing, so callers thread
// it unconditionally and only pay when profiling is on.  Allocation and heap
// numbers come from runtime.ReadMemStats snapshots at the span boundaries;
// they are process-wide, so under concurrent spans (parallel shard solves,
// concurrent merge groups) they attribute approximately, while wall-clock
// stays exact per span.
package prof

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// Profile aggregates phase measurements by name.  All methods are safe for
// concurrent use; all methods on a nil Profile are no-ops.
type Profile struct {
	mu     sync.Mutex
	phases map[string]*phase
	order  []string
}

type phase struct {
	count     int64
	wall      time.Duration
	allocs    int64
	heapDelta int64
}

// PhaseStats is the aggregated measurement of one named phase.
type PhaseStats struct {
	// Name of the phase ("stage", "contract", "sort", ...).
	Name string
	// Count is how many spans of this phase completed.
	Count int64
	// Wall is the total wall-clock time spent inside the phase's spans.
	Wall time.Duration
	// Allocs is the number of heap objects allocated during the spans
	// (process-wide; approximate when phases overlap).
	Allocs int64
	// HeapDelta is the net change of live heap bytes across the spans; it
	// can be negative when a phase releases more than it retains.
	HeapDelta int64
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{phases: map[string]*phase{}}
}

// Span is one in-progress phase measurement, closed by End.  The zero Span
// (returned by a nil Profile) is a no-op.
type Span struct {
	p       *Profile
	name    string
	start   time.Time
	mallocs uint64
	heap    uint64
}

// Start opens a span of the named phase.
func (p *Profile) Start(name string) Span {
	if p == nil {
		return Span{}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return Span{p: p, name: name, start: time.Now(), mallocs: m.Mallocs, heap: m.HeapAlloc}
}

// End closes the span and folds its measurements into the profile.
func (s Span) End() {
	if s.p == nil {
		return
	}
	wall := time.Since(s.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.p.mu.Lock()
	ph := s.p.phases[s.name]
	if ph == nil {
		ph = &phase{}
		s.p.phases[s.name] = ph
		s.p.order = append(s.p.order, s.name)
	}
	ph.count++
	ph.wall += wall
	ph.allocs += int64(m.Mallocs - s.mallocs)
	ph.heapDelta += int64(m.HeapAlloc) - int64(s.heap)
	s.p.mu.Unlock()
}

// Snapshot returns the aggregated phases in the order they first started.
// It returns nil for a nil or empty profile.
func (p *Profile) Snapshot() []PhaseStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.order) == 0 {
		return nil
	}
	out := make([]PhaseStats, 0, len(p.order))
	for _, name := range p.order {
		ph := p.phases[name]
		out = append(out, PhaseStats{
			Name:      name,
			Count:     ph.count,
			Wall:      ph.wall,
			Allocs:    ph.allocs,
			HeapDelta: ph.heapDelta,
		})
	}
	return out
}

// Wall returns the total wall-clock recorded under the named phase.
func (p *Profile) Wall(name string) time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ph := p.phases[name]; ph != nil {
		return ph.wall
	}
	return 0
}

// Format renders the snapshot as an aligned table, phases sorted by
// descending wall-clock, suitable for -profile output.
func Format(phases []PhaseStats) string {
	if len(phases) == 0 {
		return "(no phases recorded)\n"
	}
	sorted := slices.Clone(phases)
	slices.SortStableFunc(sorted, func(a, b PhaseStats) int { return cmp.Compare(b.Wall, a.Wall) })
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %14s %14s %14s\n", "phase", "count", "wall", "allocs", "heap-delta")
	for _, ph := range sorted {
		fmt.Fprintf(&b, "%-12s %8d %14s %14d %14d\n",
			ph.Name, ph.Count, ph.Wall.Round(time.Microsecond), ph.Allocs, ph.HeapDelta)
	}
	return b.String()
}
