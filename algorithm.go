package extscc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"extscc/internal/baseline"
	"extscc/internal/blockio"
	"extscc/internal/core"
	"extscc/internal/edgefile"
	"extscc/internal/iomodel"
	"extscc/internal/semiscc"
	"extscc/internal/storage"
)

// ErrDidNotConverge is returned by algorithms that may fail to make progress
// (EM-SCC on the paper's Case-1/Case-2 graphs).
var ErrDidNotConverge = errors.New("extscc: algorithm did not converge")

// ErrBudgetExceeded is returned when a run exceeds its I/O budget (see
// WithMaxIOs); the paper reports such runs as INF.
var ErrBudgetExceeded = baseline.ErrBudgetExceeded

// ErrCorrupt is the sentinel matched (errors.Is) by every detected-corruption
// failure: a frame whose CRC-32C does not cover its bytes, a malformed frame
// header mid-file, a truncated or undecodable payload.  Corruption always
// fails the run — it is never silently decoded into a wrong labelling — and
// is never retried: unlike a transient fault, corrupt bytes read the same on
// every attempt.  The wrapped error (a *blockio.CorruptError internally)
// names the file, the frame index and the byte offset.
var ErrCorrupt = blockio.ErrCorrupt

// IsTransient reports whether err looks like a transient storage failure —
// one that WithRetry would re-issue.  It matches errors declaring themselves
// transient via a `Transient() bool` method (as the fault-injection layer's
// errors do) anywhere in the unwrap chain.
func IsTransient(err error) bool { return storage.IsTransient(err) }

// Algorithm is one SCC computation strategy.  Implementations are registered
// with Register and resolved by name through Lookup, so that every tool,
// benchmark and future backend shares one dispatch path.
type Algorithm interface {
	// Name is the registry key (e.g. "ext-scc-op").
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Run computes the SCC labels of the task's graph.  It must create every
	// intermediate file beneath task.Dir, honour ctx cancellation, and write
	// the final label file — one 8-byte (node, scc) record per node, sorted
	// by node id — beneath task.Dir as well.
	Run(ctx context.Context, task *Task) (AlgoResult, error)
}

// Task is what the engine hands to an Algorithm: the opened on-disk graph, a
// private run directory, and the run configuration.
type Task struct {
	// Dir is the run directory.  All intermediates and the result label file
	// belong beneath it; the engine removes it when the Result is closed.
	Dir string
	// Graph describes the opened input graph.
	Graph GraphFiles
	// Memory is the main-memory budget M in bytes.
	Memory int64
	// BlockSize is the disk block size B in bytes.
	BlockSize int
	// NodeBudget, when positive, overrides the node capacity derived from
	// Memory (the semi-external threshold of Algorithm 2).
	NodeBudget int64
	// MaxIOs, when positive, caps the number of block transfers; algorithms
	// that support it return ErrBudgetExceeded once exceeded.
	MaxIOs int64
	// KeepTemp retains intermediate files for debugging.
	KeepTemp bool
	// Progress, when non-nil, receives progress events from algorithms that
	// emit them (the contraction-based ones report each iteration).
	//
	// Note: the engine's I/O accounting (Result.Stats) is charged through
	// its internal block layer, so only the built-in algorithms contribute
	// I/O counts today; an algorithm registered from outside this module
	// reports zero I/Os until a metered file API is exposed on Task.
	Progress func(Progress)

	graph edgefile.Graph
	cfg   iomodel.Config
}

// AlgoResult is what an Algorithm returns to the engine.
type AlgoResult struct {
	// LabelPath is the produced label file, sorted by node id, beneath the
	// task's Dir.
	LabelPath string
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// Iterations is the number of contraction iterations, for algorithms
	// that contract (0 otherwise).
	Iterations int
	// SemiExternalScans is the number of edge scans the semi-external base
	// case made, for algorithms that run it (0 otherwise).
	SemiExternalScans int
}

// Progress reports one completed contraction iteration of a running
// algorithm.
type Progress struct {
	// Iteration is the 1-based iteration that just completed.
	Iteration int
	// NumNodes and NumEdges describe the graph before the iteration.
	// NumEdges counts the input's edges, parallel edges included, at
	// iteration 1, and from iteration 2 on the distinct edges of the
	// contracted graph.
	NumNodes int64
	NumEdges int64
	// NumRemoved is the number of nodes the iteration removed.
	NumRemoved int64
	// PreservedEdges and AddedEdges count the edges the iteration kept and
	// the rewiring edges it created.  An added edge may repeat another, so
	// their sum bounds the next iteration's NumEdges from above.
	PreservedEdges int64
	AddedEdges     int64
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

var (
	registryMu sync.RWMutex
	registry   = map[string]Algorithm{}
)

// Register adds an algorithm to the registry under its Name.  It panics if
// the algorithm is nil, unnamed, or already registered — registration
// happens at init time, where a bad registration is a programming error.
func Register(a Algorithm) {
	if a == nil {
		panic("extscc: Register called with a nil algorithm")
	}
	name := a.Name()
	if name == "" {
		panic("extscc: Register called with an unnamed algorithm")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("extscc: algorithm %q registered twice", name))
	}
	registry[name] = a
}

// Algorithms returns the registered algorithms sorted by name.
func Algorithms() []Algorithm {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Algorithm, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Lookup resolves an algorithm by its registered name.
func Lookup(name string) (Algorithm, error) {
	registryMu.RLock()
	a, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		registered := Algorithms()
		names := make([]string, 0, len(registered))
		for _, a := range registered {
			names = append(names, a.Name())
		}
		return nil, fmt.Errorf("extscc: unknown algorithm %q (registered: %s)", name, strings.Join(names, ", "))
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Built-in algorithms
// ---------------------------------------------------------------------------

func init() {
	Register(coreAlgorithm{
		name:      "ext-scc",
		desc:      "contraction–expansion external SCC (Algorithm 2, plain)",
		optimized: false,
	})
	Register(coreAlgorithm{
		name:      "ext-scc-op",
		desc:      "Ext-SCC with the Section VII optimisations (default)",
		optimized: true,
	})
	Register(dfsAlgorithm{})
	Register(emAlgorithm{})
	Register(semiAlgorithm{})
}

// coreAlgorithm wraps Ext-SCC / Ext-SCC-Op.
type coreAlgorithm struct {
	name      string
	desc      string
	optimized bool
}

func (a coreAlgorithm) Name() string        { return a.name }
func (a coreAlgorithm) Description() string { return a.desc }

func (a coreAlgorithm) Run(ctx context.Context, t *Task) (AlgoResult, error) {
	opts := core.Options{Optimized: a.optimized, KeepTemp: t.KeepTemp}
	if t.Progress != nil {
		opts.OnIteration = func(it core.IterationStats) {
			t.Progress(Progress{
				Iteration:      it.Index,
				NumNodes:       it.NumNodes,
				NumEdges:       it.NumEdges,
				NumRemoved:     it.NumRemoved,
				PreservedEdges: it.PreservedEdges,
				AddedEdges:     it.AddedEdges,
			})
		}
	}
	res, err := core.ExtSCC(ctx, t.graph, t.Dir, opts, t.cfg)
	if err != nil {
		return AlgoResult{}, err
	}
	return AlgoResult{
		LabelPath:         res.LabelPath,
		NumSCCs:           res.NumSCCs,
		Iterations:        len(res.Iterations),
		SemiExternalScans: res.SemiExternal.EdgeScans,
	}, nil
}

// dfsAlgorithm wraps the external Kosaraju–Sharir baseline.
type dfsAlgorithm struct{}

func (dfsAlgorithm) Name() string { return "dfs-scc" }
func (dfsAlgorithm) Description() string {
	return "external DFS baseline (Algorithm 1); random I/O heavy"
}

func (dfsAlgorithm) Run(ctx context.Context, t *Task) (AlgoResult, error) {
	res, err := baseline.DFSSCC(ctx, t.graph, t.Dir, baseline.DFSOptions{MaxIOs: t.MaxIOs}, t.cfg)
	if err != nil {
		return AlgoResult{}, err
	}
	return AlgoResult{LabelPath: res.LabelPath, NumSCCs: res.NumSCCs}, nil
}

// emAlgorithm wraps the EM-SCC contraction heuristic.
type emAlgorithm struct{}

func (emAlgorithm) Name() string { return "em-scc" }
func (emAlgorithm) Description() string {
	return "partition-contraction heuristic [13]; may not converge"
}

func (emAlgorithm) Run(ctx context.Context, t *Task) (AlgoResult, error) {
	res, err := baseline.EMSCC(ctx, t.graph, t.Dir, baseline.EMOptions{}, t.cfg)
	if err != nil {
		return AlgoResult{}, err
	}
	if !res.Converged {
		return AlgoResult{Iterations: res.Iterations}, fmt.Errorf("%w after %d iterations", ErrDidNotConverge, res.Iterations)
	}
	return AlgoResult{LabelPath: res.LabelPath, NumSCCs: res.NumSCCs, Iterations: res.Iterations}, nil
}

// semiAlgorithm wraps the semi-external base-case solver, exposed directly
// for graphs whose node set fits in memory.
type semiAlgorithm struct{}

func (semiAlgorithm) Name() string { return "semi-scc" }
func (semiAlgorithm) Description() string {
	return "semi-external solver (O(|V|) memory, streaming edge scans)"
}

func (semiAlgorithm) Run(ctx context.Context, t *Task) (AlgoResult, error) {
	if err := ctx.Err(); err != nil {
		return AlgoResult{}, err
	}
	res, err := semiscc.Compute(t.graph, t.Dir, semiscc.Options{}, t.cfg)
	if err != nil {
		return AlgoResult{}, err
	}
	return AlgoResult{LabelPath: res.LabelPath, NumSCCs: res.NumSCCs, SemiExternalScans: res.EdgeScans}, nil
}
