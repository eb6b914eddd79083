// Package core implements Ext-SCC (Algorithm 2 of the paper), the paper's
// primary contribution: an external-memory SCC algorithm that alternates a
// graph-contraction phase (package contraction) with a graph-expansion phase
// (package expansion) around a semi-external base-case solver (package
// semiscc).
//
// The contraction loop shrinks the node set until it fits in the memory
// budget, the semi-external solver labels the final contracted graph, and the
// expansion loop walks back through the contraction steps in reverse order,
// recovering the SCC of every removed node.  Both phases use only sequential
// scans and external sorts, which is the source of the I/O savings over the
// DFS-based baseline.
package core

import (
	"context"
	"fmt"
	"time"

	"extscc/internal/blockio"
	"extscc/internal/contraction"
	"extscc/internal/edgefile"
	"extscc/internal/expansion"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/semiscc"
)

// DefaultMaxIterations bounds the contraction loop.  Lemma 5.2 guarantees
// progress on every iteration, so the bound is a safety net, not part of the
// algorithm.
const DefaultMaxIterations = 256

// Options configures an Ext-SCC run.  Time limits are imposed through the
// context passed to ExtSCC (the analogue of the paper's 24-hour cap is a
// context.WithTimeout at the call site).
type Options struct {
	// Optimized enables the Section VII optimisations (Ext-SCC-Op).
	Optimized bool
	// Type2DictSize bounds the Type-2 dictionary (0 = derive from memory).
	Type2DictSize int
	// MaxIterations bounds the contraction loop (0 = DefaultMaxIterations).
	MaxIterations int
	// ForceStreamingSemi keeps the semi-external solver from solving the final
	// contracted graph in one batch even when its edges would fit in memory
	// (semiscc.Options.ForceStreaming).
	ForceStreamingSemi bool
	// KeepTemp retains the run directory (intermediate graphs and label
	// files).  Without it a run deletes each intermediate file as soon as
	// nothing reads it any more, leaving only the final label file.
	KeepTemp bool
	// OnIteration, when non-nil, is invoked after every completed contraction
	// iteration with that iteration's statistics.  It runs on the computing
	// goroutine; callers that cancel the run from the callback observe the
	// cancellation before the next iteration starts.
	OnIteration func(IterationStats)
}

// IterationStats records one contraction step for reporting.
type IterationStats struct {
	// Index is the 1-based contraction iteration number.
	Index int
	// NumNodes and NumEdges describe G_i before the step.  NumEdges counts
	// the records of G_i's edge file: the input's, parallel edges included,
	// at iteration 1, and from iteration 2 on the distinct edges that the
	// previous step handed over, the |E_i| of Example 5.1 and Theorem 5.3.
	NumNodes int64
	NumEdges int64
	// NumRemoved is |V_i - V_{i+1}|.
	NumRemoved int64
	// PreservedEdges and AddedEdges are |E_pre| and |E_add| as written.  An
	// added edge may repeat another, so their sum bounds |E_{i+1}| from
	// above; the next iteration's NumEdges is the distinct count.
	PreservedEdges int64
	AddedEdges     int64
	// MaxRemovedDegree is the largest number of distinct neighbours among
	// removed nodes (Theorem 5.3 bounds it by sqrt(2|E_i|)).
	MaxRemovedDegree uint64
}

// Result describes a completed Ext-SCC run.
type Result struct {
	// LabelPath is the final label file: one (node, SCC) record per node of
	// the input graph, sorted by node id.  Every SCC identifier is the id of
	// one of the component's members.
	LabelPath string
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// NumNodes is the number of labelled nodes (= |V| of the input).
	NumNodes int64
	// Iterations holds one entry per contraction step, in order.
	Iterations []IterationStats
	// SemiExternal describes the base-case solve on the final contracted
	// graph.
	SemiExternal semiscc.Result
	// IO is the I/O incurred by this run (difference of the shared Stats).
	IO iomodel.Snapshot
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// RunDir is the directory holding LabelPath (and, with KeepTemp, all
	// intermediate files).
	RunDir string

	keepTemp bool
	cfg      iomodel.Config
}

// Cleanup removes the run directory, including the final label file, from
// the run's storage backend.  Call it once the labels have been consumed.
func (r *Result) Cleanup() error {
	if r == nil || r.RunDir == "" {
		return nil
	}
	return r.cfg.Backend().RemoveAll(r.RunDir)
}

// ExtSCC computes all SCCs of g under the memory budget of cfg.
// Intermediate files are written beneath dir (empty = cfg.TempDir or the
// system temp directory).  Cancelling ctx stops the computation within one
// contraction or expansion step and removes the run directory.
func ExtSCC(ctx context.Context, g edgefile.Graph, dir string, opts Options, cfg iomodel.Config) (*Result, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		dir = cfg.TempDir
	}
	runDir, err := cfg.Backend().MkdirTemp(dir, "extscc-run-")
	if err != nil {
		return nil, fmt.Errorf("core: create run directory: %w", err)
	}
	res, err := run(ctx, g, runDir, opts, cfg)
	if err != nil {
		cfg.Backend().RemoveAll(runDir)
		return nil, err
	}
	return res, nil
}

func run(ctx context.Context, g edgefile.Graph, runDir string, opts Options, cfg iomodel.Config) (*Result, error) {
	start := time.Now()
	before := cfg.Stats.Snapshot()
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	result := &Result{RunDir: runDir, keepTemp: opts.KeepTemp, NumNodes: g.NumNodes, cfg: cfg}
	copts := contraction.Options{Optimized: opts.Optimized, Type2DictSize: opts.Type2DictSize}

	// Graph-contraction phase (Algorithm 2, lines 2-4): shrink the node set
	// until it fits in memory.
	capacity := cfg.NodeCapacity()
	current := g
	var steps []string // the removed-step file of every contraction step
	// free drops an intermediate graph's files once nothing reads them any
	// more: expansion reads the removed-step files and the labels, never
	// G_i.  The input graph's files are the caller's.
	free := func(gi edgefile.Graph) {
		if !opts.KeepTemp && gi.EdgePath != g.EdgePath {
			gi.Remove(cfg)
		}
	}
	for current.NumNodes > capacity {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(steps) >= maxIter {
			return nil, fmt.Errorf("core: contraction did not reach the memory budget within %d iterations (|V|=%d, capacity=%d)", maxIter, current.NumNodes, capacity)
		}
		sp := cfg.Prof.Start("contract")
		cres, err := contraction.Contract(ctx, current, runDir, copts, cfg)
		sp.End()
		if err != nil {
			return nil, err
		}
		it := IterationStats{
			Index:            len(steps) + 1,
			NumNodes:         current.NumNodes,
			NumEdges:         current.NumEdges,
			NumRemoved:       cres.NumRemoved,
			PreservedEdges:   cres.PreservedEdges,
			AddedEdges:       cres.AddedEdges,
			MaxRemovedDegree: cres.MaxRemovedDegree,
		}
		free(current)
		steps = append(steps, cres.RemovedPath)
		current = cres.Next
		result.Iterations = append(result.Iterations, it)
		if opts.OnIteration != nil {
			opts.OnIteration(it)
		}
	}

	// Semi-external base case (Algorithm 2, line 5).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := cfg.Prof.Start("label")
	semiRes, err := semiscc.Compute(current, runDir, semiscc.Options{ForceStreaming: opts.ForceStreamingSemi}, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	free(current)
	result.SemiExternal = semiRes
	labels := semiRes.LabelPath
	// The solver reports how many labels it actually wrote, and each
	// expansion step reports its written |V_i| count; carrying the produced
	// counts forward keeps the completeness check below meaningful without a
	// counting scan of the (possibly compressed) final label file.
	numLabels := semiRes.NumLabels

	// Graph-expansion phase (Algorithm 2, lines 6-9): add the removed nodes
	// back in reverse order of removal.
	for i := len(steps) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := cfg.Prof.Start("expand")
		eres, err := expansion.ExpandContext(ctx, expansion.Input{
			RemovedPath:    steps[i],
			KeptLabelsPath: labels,
		}, runDir, cfg)
		sp.End()
		if err != nil {
			return nil, err
		}
		if !opts.KeepTemp {
			blockio.Remove(steps[i], cfg)
			blockio.Remove(labels, cfg)
		}
		labels = eres.LabelPath
		numLabels = eres.NumLabels
	}

	numSCCs, err := semiscc.CountSCCsInFile(labels, cfg)
	if err != nil {
		return nil, err
	}
	if numLabels != g.NumNodes {
		return nil, fmt.Errorf("core: produced %d labels for a graph with %d nodes", numLabels, g.NumNodes)
	}

	result.LabelPath = labels
	result.NumSCCs = numSCCs
	result.Duration = time.Since(start)
	result.IO = cfg.Stats.Snapshot().Sub(before)
	return result, nil
}

// ReadLabels loads the final label file of a result into memory.  Intended
// for callers whose node set fits in memory (tests, examples, the public
// facade); large deployments should stream LabelPath instead.
func (r *Result) ReadLabels(cfg iomodel.Config) ([]record.Label, error) {
	return recio.ReadAll(r.LabelPath, record.LabelCodec{}, cfg)
}
