package extscc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"extscc/internal/edgefile"
	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// Engine runs a registered SCC algorithm over any Source under a fixed I/O
// configuration.  An Engine is immutable after New and safe for concurrent
// Runs; each Run gets its own run directory and I/O counters.
type Engine struct {
	algo     Algorithm
	base     iomodel.Config
	keepTemp bool
	maxIOs   int64
	shards   int
	progress func(Progress)
}

// Option configures an Engine.
type Option func(*Engine) error

// WithAlgorithm selects the algorithm by its registered name (see
// Algorithms).  The default is "ext-scc-op".
func WithAlgorithm(name string) Option {
	return func(e *Engine) error {
		a, err := Lookup(name)
		if err != nil {
			return err
		}
		e.algo = a
		return nil
	}
}

// WithMemory sets the main-memory budget M in bytes (0 = the scaled-down
// default, iomodel.DefaultMemory).
func WithMemory(bytes int64) Option {
	return func(e *Engine) error {
		e.base.Memory = bytes
		return nil
	}
}

// WithBlockSize sets the disk block size B in bytes (0 = default).
func WithBlockSize(b int) Option {
	return func(e *Engine) error {
		e.base.BlockSize = b
		return nil
	}
}

// WithNodeBudget overrides the number of nodes considered to fit in memory,
// decoupling the contraction stop condition from the memory budget.  The
// default, (M − B) / 8, follows the paper's charge of 8 bytes per node, not
// the semi-external solver's footprint of about 40 bytes per node plus a
// batch of up to M/2 bytes (see iomodel.BytesPerNode).
func WithNodeBudget(nodes int64) Option {
	return func(e *Engine) error {
		e.base.NodeBudget = nodes
		return nil
	}
}

// WithTempDir sets the directory that holds each run's private run directory
// ("" = the system temp directory).
func WithTempDir(dir string) Option {
	return func(e *Engine) error {
		e.base.TempDir = dir
		return nil
	}
}

// WithKeepTemp retains each run's intermediate files for debugging instead
// of deleting them as the run progresses.
func WithKeepTemp(keep bool) Option {
	return func(e *Engine) error {
		e.keepTemp = keep
		return nil
	}
}

// WithMaxIOs caps a run's block transfers; algorithms that support the cap
// (dfs-scc) fail with ErrBudgetExceeded once it is spent.  Time budgets are
// expressed with a context deadline instead.
func WithMaxIOs(n int64) Option {
	return func(e *Engine) error {
		e.maxIOs = n
		return nil
	}
}

// WithWorkers has no effect: every external sort and block stream of a run
// executes on the run's own goroutine and keeps to the memory budget M, and
// Stats.Workers reports 1.  The only concurrency inside a run is WithShards.
// The option remains so that callers that set it keep compiling; it still
// rejects a negative count.
func WithWorkers(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("extscc: WithWorkers(%d): worker count cannot be negative", n)
		}
		return nil
	}
}

// WithRetry sets how many times a failed storage operation (open, create,
// block read, block write) is re-issued when the failure is transient
// (see IsTransient).  The default, 0, disables retrying entirely: every run
// is byte-for-byte and counter-for-counter identical to the engine before
// retries existed, and the first I/O error fails the run.  With n > 0 each
// retry waits briefly (exponential backoff) before re-issuing; a retried
// append first truncates the file back to its last known-good length, so a
// torn write is never duplicated.  Retries never change the accounted I/O —
// a re-issued block transfer replaces the failed one — and permanent errors
// are never retried.  Result.Stats.Retries reports how many retries a run
// performed.
func WithRetry(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("extscc: WithRetry(%d): retry count cannot be negative", n)
		}
		e.base.Retries = n
		return nil
	}
}

// Storage selects where every file of a run lives: the staged input, all
// intermediates, and the result label file.  The two built-in backends are
// OSStorage (local disk, the default) and MemStorage (an in-RAM block
// store); both carry the identical I/O accounting, because the engine
// charges block transfers above the storage layer.  Storage is an alias of
// the internal backend interface so that in-module tools and examples can
// implement custom backends.
type Storage = storage.Backend

// StorageFile is the file handle a Storage backend serves.
type StorageFile = storage.File

// OSStorage returns the local-filesystem backend: the historical behaviour,
// byte-identical to the engine before storage became pluggable.
func OSStorage() Storage { return storage.OS() }

// MemStorage returns a fresh, empty in-memory backend.  A run against it
// touches no disk at all — sources stage into RAM, every sort and scan runs
// against RAM, and the Result's label file lives in RAM (ExportLabels
// exports within the same store) — while Result.Stats reports exactly the
// block I/Os the same run would perform on disk.  Keep a reference to the
// returned backend to read files back out of it.
func MemStorage() Storage { return storage.NewMem() }

// WithStorage selects the storage backend of every run of the engine.  The
// default is the OS backend unless the EXTSCC_STORAGE environment variable
// says otherwise ("mem" switches the whole process to one shared in-memory
// store, which is how CI runs the test suite once per backend).
//
// The backend never changes the computation or its accounted cost: for any
// fixed workload and configuration, MemStorage and OSStorage produce
// identical SCC labellings and identical I/O counters.
func WithStorage(b Storage) Option {
	return func(e *Engine) error {
		if b == nil {
			return errors.New("extscc: WithStorage(nil)")
		}
		e.base.Storage = b
		return nil
	}
}

// WithShards enables the sharded contraction pre-pass: the input is
// partitioned into n contiguous source-node ranges, each range's internal
// subgraph is fully contracted by a concurrent Ext-SCC run, and the engine's
// configured algorithm then finishes the condensed remainder.  0 or 1 (the
// default) disables the pre-pass.  Sharding never changes the computed SCC
// partition — every algorithm produces the same components sharded or not —
// but the label chosen to name a component may differ between the two modes
// (both are always member ids), and the accounted I/O includes the extra
// split/condense passes.  Shard solves run concurrently, so the transient
// memory footprint grows to roughly n × the memory budget.
func WithShards(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("extscc: WithShards(%d): shard count cannot be negative", n)
		}
		e.shards = n
		return nil
	}
}

// CodecFixed and CodecVarint name the built-in record-codec families
// accepted by WithCodec.
const (
	// CodecFixed is the historical fixed-size record layout, byte-identical
	// to the files the engine wrote before codecs became pluggable.  Record
	// seeks cost pure offset arithmetic; nothing compresses.
	CodecFixed = record.FamilyFixed
	// CodecVarint is the delta+varint block layout (the default):
	// intermediate files are written as self-describing compressed frames,
	// shrinking every scan, sort run and merge — and with them the
	// accounted block I/Os.  It wins on sorted files, where deltas between
	// neighbouring records are small.
	CodecVarint = record.FamilyVarint
)

// Codecs lists the registered codec family names.
func Codecs() []string { return record.Families() }

// WithCodec selects the record-codec family every intermediate file of a run
// is written with: CodecVarint (the default) or CodecFixed.  Readers
// auto-detect the codec of each file from its self-describing frame header,
// so inputs written under either family are accepted regardless of this
// setting.
//
// Unlike WithStorage, the codec intentionally changes the accounted I/O:
// varint stores the same records in fewer bytes and therefore fewer blocks.
// It never changes the computed labelling — for any workload
// and configuration, both codec families produce identical SCC labels (the
// cross-codec equivalence the test suite enforces).  Framed files
// end with a frame-index footer, so record seeks work under every family —
// the random-access consumers (the dfs-scc baseline, Result.LabelOf, the
// serving subsystem) run unchanged whatever this option says.
func WithCodec(name string) Option {
	return func(e *Engine) error {
		if name != "" && !record.ValidFamily(name) {
			return fmt.Errorf("extscc: WithCodec(%q): unknown codec family (known: %v)", name, record.Families())
		}
		e.base.Codec = name
		return nil
	}
}

// WithProgress installs a callback that receives progress events (one per
// contraction iteration for the contraction-based algorithms).  The callback
// runs on the computing goroutine, so cancelling the run's context from
// inside it stops the run before the next iteration.
func WithProgress(fn func(Progress)) Option {
	return func(e *Engine) error {
		e.progress = fn
		return nil
	}
}

// New builds an Engine.  Without options it runs "ext-scc-op" with the
// default scaled-down I/O-model parameters.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if e.algo == nil {
		a, err := Lookup("ext-scc-op")
		if err != nil {
			return nil, err
		}
		e.algo = a
	}
	cfg, err := iomodel.Config{
		BlockSize:  e.base.BlockSize,
		Memory:     e.base.Memory,
		NodeBudget: e.base.NodeBudget,
		TempDir:    e.base.TempDir,
		Codec:      e.base.Codec,
		Retries:    e.base.Retries,
		Storage:    e.base.Storage,
	}.Validate()
	if err != nil {
		return nil, err
	}
	cfg.Stats = nil // each Run allocates its own counters
	e.base = cfg
	return e, nil
}

// Algorithm returns the engine's configured algorithm.
func (e *Engine) Algorithm() Algorithm { return e.algo }

// Run opens src, executes the engine's algorithm on it, and returns the
// labelled Result.  Cancelling ctx stops the computation within one
// contraction iteration (or a few traversal steps, for dfs-scc) and removes
// every file the run created.  The caller owns the Result and must Close it
// to release the run directory.
func (e *Engine) Run(ctx context.Context, src Source) (*Result, error) {
	if src == nil {
		return nil, errors.New("extscc: Run called with a nil Source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	cfg := e.base
	cfg.Stats = &iomodel.Stats{}
	cfg.Prof = prof.New()

	backend := cfg.Backend()
	runDir, err := backend.MkdirTemp(cfg.TempDir, "extscc-engine-")
	if err != nil {
		return nil, fmt.Errorf("extscc: create run directory: %w", err)
	}
	// Every staging and intermediate file lives beneath runDir, so a failed
	// or cancelled run cleans up with a single RemoveAll.
	cfg.TempDir = runDir
	fail := func(err error) (*Result, error) {
		if !e.keepTemp {
			backend.RemoveAll(runDir)
		}
		return nil, err
	}

	stage := func() (edgefile.Graph, GraphFiles, error) {
		sp := cfg.Prof.Start("stage")
		defer sp.End()
		gf, err := src.Open(ctx, SourceEnv{Dir: runDir, cfg: cfg})
		if err != nil {
			return edgefile.Graph{}, GraphFiles{}, err
		}
		if gf.EdgePath == "" {
			return edgefile.Graph{}, GraphFiles{}, errors.New("extscc: source returned no edge file")
		}
		// The node-derivation pass below is not context-aware, so do not
		// start it for a context that is already done.
		if err := ctx.Err(); err != nil {
			return edgefile.Graph{}, GraphFiles{}, err
		}
		return resolveGraph(gf, runDir, cfg)
	}
	g, gf, err := stage()
	if err != nil {
		return fail(err)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	task := &Task{
		Dir:        runDir,
		Graph:      gf,
		Memory:     cfg.Memory,
		BlockSize:  cfg.BlockSize,
		NodeBudget: cfg.NodeBudget,
		MaxIOs:     e.maxIOs,
		KeepTemp:   e.keepTemp,
		Progress:   e.progress,
		graph:      g,
		cfg:        cfg,
	}
	before := cfg.Stats.Snapshot()
	var ares AlgoResult
	// The pre-pass needs at least one node per shard; smaller inputs just run
	// unsharded, which computes the same partition.
	if k := e.shards; k > 1 && int64(k) <= g.NumNodes {
		ares, err = runSharded(ctx, e.algo, task, k)
	} else {
		ares, err = e.algo.Run(ctx, task)
	}
	if err != nil {
		return fail(err)
	}
	full := cfg.Stats.Snapshot()
	delta := full.Sub(before)
	return &Result{
		Algorithm: e.algo.Name(),
		NumNodes:  g.NumNodes,
		NumEdges:  g.NumEdges,
		NumSCCs:   ares.NumSCCs,
		LabelPath: ares.LabelPath,
		EdgePath:  gf.EdgePath,
		NodePath:  gf.NodePath,
		Stats: Stats{
			TotalIOs:              delta.TotalIOs(),
			ReadIOs:               delta.ReadBlocks,
			WriteIOs:              delta.WriteBlocks,
			RandomIOs:             delta.RandomIOs(),
			RandomReads:           delta.RandomReads,
			RandomWrites:          delta.RandomWrites,
			BytesRead:             delta.BytesRead,
			BytesWritten:          delta.BytesWritten,
			FilesCreated:          delta.FilesCreated,
			CompressionRatio:      delta.CompressionRatio(),
			ContractionIterations: ares.Iterations,
			SemiExternalScans:     ares.SemiExternalScans,
			// Retries and corruption are reported for the whole run —
			// staging included — unlike the algorithm-only I/O delta above:
			// a recovered fault is a recovered fault wherever it struck.
			Retries:       full.Retries,
			CorruptFrames: full.CorruptFrames,
			Phases:        phaseStats(cfg.Prof),
			Workers:       1,
			Storage:       cfg.Backend().Name(),
			Codec:         cfg.CodecFamily(),
			Duration:      time.Since(start),
		},
		runDir: runDir,
		cfg:    cfg,
	}, nil
}

// resolveGraph turns the source's GraphFiles into a complete on-disk graph,
// deriving the node file and the counts when the source did not provide
// them.
func resolveGraph(gf GraphFiles, runDir string, cfg iomodel.Config) (edgefile.Graph, GraphFiles, error) {
	if gf.NodePath == "" {
		g, err := edgefile.GraphFromEdgeFile(gf.EdgePath, runDir, gf.ExtraNodes, cfg)
		if err != nil {
			return edgefile.Graph{}, GraphFiles{}, fmt.Errorf("extscc: open graph: %w", err)
		}
		gf.NodePath, gf.NumNodes, gf.NumEdges = g.NodePath, g.NumNodes, g.NumEdges
		return g, gf, nil
	}
	if gf.NumEdges == 0 {
		n, err := recio.CountRecords(gf.EdgePath, record.EdgeCodec{}, cfg)
		if err != nil {
			return edgefile.Graph{}, GraphFiles{}, err
		}
		gf.NumEdges = n
	}
	if gf.NumNodes == 0 {
		n, err := recio.CountRecords(gf.NodePath, record.NodeCodec{}, cfg)
		if err != nil {
			return edgefile.Graph{}, GraphFiles{}, err
		}
		gf.NumNodes = n
	}
	g := edgefile.Graph{
		EdgePath: gf.EdgePath,
		NodePath: gf.NodePath,
		NumNodes: gf.NumNodes,
		NumEdges: gf.NumEdges,
	}
	return g, gf, nil
}
