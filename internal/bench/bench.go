// Package bench regenerates the paper's evaluation (Section VIII): every
// figure is an experiment that sweeps one parameter, runs the compared
// algorithms (DFS-SCC, Ext-SCC, Ext-SCC-Op, and EM-SCC where relevant) on the
// corresponding workload, and reports wall-clock time and the number of block
// I/Os — the two quantities the paper plots.
//
// The workloads are scaled down from the paper's 25M–200M-node graphs: the
// synthetic datasets of Table I with their sizes divided by Config.Scale, and
// a generated web-like graph (graphgen.WebGraphParams) in place of the
// WEBSPAM-UK2007 crawl.  The harness preserves the relative shape of every
// figure: which algorithm wins, by roughly what factor, and how the cost
// moves along the swept parameter.  Runs that exceed their budget are reported as INF, like
// the paper's 24-hour cap.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"extscc"
	"extscc/internal/baseline"
	"extscc/internal/blockio"
	"extscc/internal/core"
	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// Algorithm names used in the measurement series, matching the paper's
// legends.
const (
	AlgoDFS      = "DFS-SCC"
	AlgoExt      = "Ext-SCC"
	AlgoExtOp    = "Ext-SCC-Op"
	AlgoEM       = "EM-SCC"
	AlgoExtNoT2  = "Ext-SCC-Op/noType2"    // ablation: Type-2 dictionary disabled
	AlgoExtNoMem = "Ext-SCC-Op/streamSemi" // ablation: in-memory final solve disabled
)

// Measurement is one data point of one figure series.
type Measurement struct {
	// Experiment is the experiment identifier (e.g. "fig6").
	Experiment string
	// Series is the algorithm name.
	Series string
	// X is the swept parameter value (e.g. "60%" or "M=V/4").
	X string
	// Storage names the backend the run executed on ("os", "mem").  It
	// never changes the accounted I/O counts, only Duration.
	Storage string
	// Codec names the record-codec family intermediate files were written
	// with ("fixed" or "varint").  Unlike Storage it
	// deliberately changes BytesWritten and the block counts (compression),
	// never the labelling.
	Codec string
	// Duration is the wall-clock time of the run (0 when INF).
	Duration time.Duration
	// TotalIOs and RandomIOs are block-transfer counts (0 when INF).
	TotalIOs  int64
	RandomIOs int64
	// BytesRead and BytesWritten are the transferred volumes (0 when INF);
	// the quantities a compressing codec shrinks.
	BytesRead    int64
	BytesWritten int64
	// Shards is the compute-shard count of the run (1 = unsharded).  The
	// sharded pre-pass preserves the SCC partition but adds split/condense
	// passes, so the I/O counts are not comparable across shard counts.
	Shards int
	// Phases is the per-phase profile of the run (wall-clock, allocations,
	// heap growth), in first-execution order.
	Phases []PhaseMeasurement
	// Iterations is the number of contraction iterations (Ext-SCC variants).
	Iterations int
	// NumSCCs is the number of SCCs found (sanity check across algorithms).
	NumSCCs int64
	// Partition fingerprints the SCC partition the run computed (see
	// partitionFingerprint; 0 when INF).  CheckGrid compares it across
	// grid axes; it stays out of the report.
	Partition uint64
	// INF marks a run that exceeded its budget (the paper's "INF" bars).
	INF bool
	// Note carries extra information (e.g. EM-SCC "did not converge").
	Note string
}

// PhaseMeasurement is one profiled engine phase of a run, in report form
// (wall-clock in milliseconds for direct plotting).
type PhaseMeasurement struct {
	Name      string  `json:"name"`
	Count     int64   `json:"count"`
	WallMS    float64 `json:"wall_ms"`
	Allocs    int64   `json:"allocs"`
	HeapDelta int64   `json:"heap_delta"`
}

// phaseMeasurements converts engine phase stats to report form.
func phaseMeasurements(ps []extscc.PhaseStat) []PhaseMeasurement {
	if len(ps) == 0 {
		return nil
	}
	out := make([]PhaseMeasurement, len(ps))
	for i, p := range ps {
		out[i] = PhaseMeasurement{
			Name: p.Name, Count: p.Count, WallMS: float64(p.Wall) / float64(time.Millisecond),
			Allocs: p.Allocs, HeapDelta: p.HeapDelta,
		}
	}
	return out
}

// PhaseWallMS returns the wall-clock milliseconds of the named phase (0 when
// the run did not execute it).
func (m Measurement) PhaseWallMS(name string) float64 {
	for _, p := range m.Phases {
		if p.Name == name {
			return p.WallMS
		}
	}
	return 0
}

// phaseColumns is the fixed per-phase CSV column order: every engine phase,
// whether or not a particular run executed it.
var phaseColumns = []string{"stage", "contract", "sort", "merge", "label", "expand"}

// Config scales and caps the experiments.
type Config struct {
	// Scale divides the paper's size parameters (default 1000; larger values
	// mean smaller, faster experiments).
	Scale int
	// TempDir is where graphs and intermediate files are written.
	TempDir string
	// DFSBudget caps each DFS-SCC run; exceeding it reports INF (default 30s).
	DFSBudget time.Duration
	// DFSMaxIOs caps each DFS-SCC run by I/O count (default 2,000,000).
	DFSMaxIOs int64
	// Quick shrinks every workload further (used by the testing.B benches and
	// by -quick) so a full sweep finishes in seconds.
	Quick bool
	// Storage is the backend graphs and intermediates live on (nil = the
	// process default, normally the OS backend).  The measured I/O counts
	// are identical on every backend; only the wall-clock changes.
	Storage storage.Backend
	// Codec is the record-codec family intermediate files are written with
	// ("" = varint, the default).  Varint lowers BytesWritten and the block
	// counts against fixed without changing any SCC result.
	Codec string
	// Retries is the transient-failure retry budget per storage operation
	// (0 = fail fast).  Retried transfers are never double-counted, so the
	// measured I/O is identical at every setting.
	Retries int
	// Shards is the compute-shard count of the sharded contraction pre-pass
	// (0 or 1 = unsharded).  Shard solves run concurrently, so the wall-clock
	// drops with spare CPUs while every SCC count stays identical.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if c.DFSBudget <= 0 {
		c.DFSBudget = 30 * time.Second
	}
	if c.DFSMaxIOs <= 0 {
		c.DFSMaxIOs = 2_000_000
	}
	if c.TempDir == "" {
		c.TempDir = os.TempDir()
	}
	return c
}

// resolvedShards returns the effective compute-shard count.
func (c Config) resolvedShards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// ioConfig builds the I/O-model configuration for one run.
func (c Config) ioConfig(nodeBudget int64) iomodel.Config {
	return iomodel.Config{
		BlockSize:  iomodel.DefaultBlockSize,
		Memory:     iomodel.DefaultMemory,
		NodeBudget: nodeBudget,
		TempDir:    c.TempDir,
		Codec:      c.Codec,
		Retries:    c.Retries,
		Storage:    c.Storage,
		Stats:      &iomodel.Stats{},
	}
}

// Experiments lists the experiment identifiers in paper order.
func Experiments() []string {
	return []string{
		"table1", "fig6", "fig7",
		"fig8a", "fig8c", "fig8e",
		"fig9a", "fig9c", "fig9e", "fig9g",
		"emscc", "ablation",
	}
}

// HasShardedPath reports whether the experiment runs sharded at
// Config.Shards > 1.  emscc and ablation do not: they call baseline.EMSCC
// and core.ExtSCC directly, which a shard count never reaches, so they
// return no rows there rather than repeat their unsharded sweep.
func HasShardedPath(experiment string) bool { return experiment != "emscc" && experiment != "ablation" }

// Run executes one experiment, or with "all" every experiment in paper
// order, and returns its measurements.  An experiment without a sharded
// path (HasShardedPath) returns no rows when c.Shards > 1.
func Run(experiment string, c Config) ([]Measurement, error) {
	c = c.withDefaults()
	if c.Shards > 1 && !HasShardedPath(experiment) {
		return nil, nil
	}
	switch experiment {
	case "all":
		var all []Measurement
		for _, exp := range Experiments() {
			ms, err := Run(exp, c)
			if err != nil {
				return all, fmt.Errorf("bench: experiment %s: %w", exp, err)
			}
			all = append(all, ms...)
		}
		return all, nil
	case "table1":
		return table1(c)
	case "fig6":
		return fig6(c)
	case "fig7":
		return fig7(c)
	case "fig8a":
		return fig8(c, "fig8a", graphgen.MassiveSCCParams(c.Scale))
	case "fig8c":
		return fig8(c, "fig8c", graphgen.LargeSCCParams(c.Scale))
	case "fig8e":
		return fig8(c, "fig8e", graphgen.SmallSCCParams(c.Scale))
	case "fig9a":
		return fig9Nodes(c)
	case "fig9c":
		return fig9Degree(c)
	case "fig9e":
		return fig9SCCSize(c)
	case "fig9g":
		return fig9SCCCount(c)
	case "emscc":
		return emscc(c)
	case "ablation":
		return ablation(c)
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (known: all, %s)", experiment, strings.Join(Experiments(), ", "))
	}
}

// ---------------------------------------------------------------------------
// Workload materialisation
// ---------------------------------------------------------------------------

// onDiskGraph materialises a generated edge stream as an edgefile.Graph.
func onDiskGraph(c Config, write func(path string, cfg iomodel.Config) (int64, error), numNodes int) (edgefile.Graph, func(), error) {
	genCfg := c.ioConfig(0)
	edgePath := fmt.Sprintf("%s/bench-edges-%d.bin", c.TempDir, time.Now().UnixNano())
	if _, err := write(edgePath, genCfg); err != nil {
		return edgefile.Graph{}, nil, err
	}
	nodes := make([]record.NodeID, numNodes)
	for i := range nodes {
		nodes[i] = record.NodeID(i)
	}
	g, err := edgefile.GraphFromEdgeFile(edgePath, c.TempDir, nodes, genCfg)
	if err != nil {
		return edgefile.Graph{}, nil, err
	}
	cleanup := func() {
		blockio.Remove(g.EdgePath, genCfg)
		blockio.Remove(g.NodePath, genCfg)
	}
	return g, cleanup, nil
}

func syntheticGraph(c Config, p graphgen.SyntheticParams) (edgefile.Graph, func(), error) {
	return onDiskGraph(c, p.WriteTo, p.NumNodes)
}

func webGraph(c Config, p graphgen.WebGraphParams) (edgefile.Graph, func(), error) {
	return onDiskGraph(c, p.WriteTo, p.NumNodes)
}

func (c Config) webParams() graphgen.WebGraphParams {
	p := graphgen.DefaultWebGraphParams()
	if c.Quick {
		p.NumNodes = 6000
		p.AvgDegree = 8
		// Keep the giant core well below the smallest quick-mode node budget
		// (0.5|V|): contracting into a dense core rewires quadratically many
		// edges, which is exactly the regime the smoke runs must avoid.
		p.CoreFraction = 0.2
	}
	return p
}

func (c Config) syntheticQuick(p graphgen.SyntheticParams) graphgen.SyntheticParams {
	if !c.Quick {
		return p
	}
	shrink := p.NumNodes / 5000
	if shrink < 1 {
		shrink = 1
	}
	p.NumNodes /= shrink
	if p.MassiveSCCSize > p.NumNodes/4 {
		p.MassiveSCCSize = p.NumNodes / 4
	}
	for p.LargeSCCSize*p.LargeSCCCount > p.NumNodes/2 && p.LargeSCCCount > 1 {
		p.LargeSCCCount /= 2
	}
	for p.SmallSCCSize*p.SmallSCCCount > p.NumNodes/2 && p.SmallSCCCount > 1 {
		p.SmallSCCCount /= 2
	}
	return p
}

// ---------------------------------------------------------------------------
// Algorithm runners
// ---------------------------------------------------------------------------

// suite maps the registry names of the standard comparison suite to the
// series names of the paper's legends.  Budgeted entries run under the
// configured time and I/O caps and are reported as INF when they exceed
// them, like the paper's 24-hour limit; the Ext variants must complete, so
// they run uncapped.
var suite = []struct {
	algo     string
	series   string
	budgeted bool
}{
	{"ext-scc", AlgoExt, false},
	{"ext-scc-op", AlgoExtOp, false},
	{"dfs-scc", AlgoDFS, true},
}

// runSuite runs the standard comparison suite (Ext-SCC, Ext-SCC-Op and
// DFS-SCC, resolved through the algorithm registry) on g with the given node
// budget and appends one measurement per algorithm.
func runSuite(c Config, experiment, x string, g edgefile.Graph, nodeBudget int64) ([]Measurement, error) {
	var out []Measurement
	for _, s := range suite {
		m, err := runRegistered(c, experiment, x, g, nodeBudget, s.algo, s.series, s.budgeted)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runRegistered runs one registry algorithm on the pre-staged graph g.
func runRegistered(c Config, experiment, x string, g edgefile.Graph, nodeBudget int64, algo, series string, budgeted bool) (Measurement, error) {
	backend := c.ioConfig(0).Backend()
	opts := []extscc.Option{
		extscc.WithAlgorithm(algo),
		extscc.WithMemory(iomodel.DefaultMemory),
		extscc.WithBlockSize(iomodel.DefaultBlockSize),
		extscc.WithNodeBudget(nodeBudget),
		extscc.WithTempDir(c.TempDir),
		extscc.WithStorage(backend),
		extscc.WithCodec(c.Codec),
		extscc.WithRetry(c.Retries),
		extscc.WithShards(c.resolvedShards()),
	}
	ctx := context.Background()
	if budgeted {
		budget := c.DFSBudget
		maxIOs := c.DFSMaxIOs
		if c.Quick {
			if budget > 2*time.Second {
				budget = 2 * time.Second
			}
			if maxIOs > 200_000 {
				maxIOs = 200_000
			}
		}
		opts = append(opts, extscc.WithMaxIOs(maxIOs))
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	eng, err := extscc.New(opts...)
	if err != nil {
		return Measurement{}, err
	}
	res, err := eng.Run(ctx, extscc.PreparedSource(g.EdgePath, g.NodePath, g.NumNodes, g.NumEdges))
	switch {
	case errors.Is(err, extscc.ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded):
		return Measurement{Experiment: experiment, Series: series, X: x, Storage: backend.Name(), Codec: c.ioConfig(0).CodecFamily(), Shards: c.resolvedShards(), INF: true, Note: "exceeded budget"}, nil
	case err != nil:
		return Measurement{}, err
	}
	defer res.Close()
	part, err := partitionFingerprint(res.LabelPath, c.ioConfig(0))
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Experiment:   experiment,
		Series:       series,
		X:            x,
		Storage:      res.Stats.Storage,
		Codec:        res.Stats.Codec,
		Shards:       c.resolvedShards(),
		Phases:       phaseMeasurements(res.Stats.Phases),
		Duration:     res.Stats.Duration,
		TotalIOs:     res.Stats.TotalIOs,
		RandomIOs:    res.Stats.RandomIOs,
		BytesRead:    res.Stats.BytesRead,
		BytesWritten: res.Stats.BytesWritten,
		Iterations:   res.Stats.ContractionIterations,
		NumSCCs:      res.NumSCCs,
		Partition:    part,
	}, nil
}

// runExt runs one Ext-SCC variant with explicit core options; the ablation
// experiment uses it to toggle internal knobs the public engine does not
// expose.
func runExt(c Config, experiment, x string, g edgefile.Graph, nodeBudget int64, opts core.Options, series string) (Measurement, error) {
	cfg := c.ioConfig(nodeBudget)
	cfg.Prof = prof.New()
	res, err := core.ExtSCC(context.Background(), g, c.TempDir, opts, cfg)
	if err != nil {
		return Measurement{}, err
	}
	defer res.Cleanup()
	part, err := partitionFingerprint(res.LabelPath, cfg)
	if err != nil {
		return Measurement{}, err
	}
	phases := make([]extscc.PhaseStat, 0, 4)
	for _, p := range cfg.Prof.Snapshot() {
		phases = append(phases, extscc.PhaseStat{Name: p.Name, Count: p.Count, Wall: p.Wall, Allocs: p.Allocs, HeapDelta: p.HeapDelta})
	}
	return Measurement{
		Experiment:   experiment,
		Series:       series,
		X:            x,
		Storage:      cfg.Backend().Name(),
		Codec:        cfg.CodecFamily(),
		Shards:       1,
		Phases:       phaseMeasurements(phases),
		Duration:     res.Duration,
		TotalIOs:     res.IO.TotalIOs(),
		RandomIOs:    res.IO.RandomIOs(),
		BytesRead:    res.IO.BytesRead,
		BytesWritten: res.IO.BytesWritten,
		Iterations:   len(res.Iterations),
		NumSCCs:      res.NumSCCs,
		Partition:    part,
	}, nil
}

// ---------------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------------

// table1 reports the realised (scaled) generator parameters of Table I.
func table1(c Config) ([]Measurement, error) {
	note := func(p graphgen.SyntheticParams) string {
		return fmt.Sprintf("|V|=%d D=%d massive=%dx%d large=%dx%d small=%dx%d",
			p.NumNodes, p.AvgDegree,
			p.MassiveSCCCount, p.MassiveSCCSize,
			p.LargeSCCCount, p.LargeSCCSize,
			p.SmallSCCCount, p.SmallSCCSize)
	}
	return []Measurement{
		{Experiment: "table1", Series: "Massive-SCC", X: fmt.Sprintf("scale=%d", c.Scale), Note: note(graphgen.MassiveSCCParams(c.Scale))},
		{Experiment: "table1", Series: "Large-SCC", X: fmt.Sprintf("scale=%d", c.Scale), Note: note(graphgen.LargeSCCParams(c.Scale))},
		{Experiment: "table1", Series: "Small-SCC", X: fmt.Sprintf("scale=%d", c.Scale), Note: note(graphgen.SmallSCCParams(c.Scale))},
	}, nil
}

// fig6 varies the fraction of web-graph edges from 20% to 100% with a fixed
// memory budget (Fig. 6a time, Fig. 6b I/Os).
func fig6(c Config) ([]Measurement, error) {
	p := c.webParams()
	full, cleanup, err := webGraph(c, p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	genCfg := c.ioConfig(0)
	budget := int64(p.NumNodes) / 4
	if c.Quick {
		// See fig7: quarter-|V| budgets densify the quick web graph.
		budget = int64(p.NumNodes) / 2
	}

	var out []Measurement
	for _, pct := range []int{20, 40, 60, 80, 100} {
		sampled := full
		var sampledCleanup func()
		if pct < 100 {
			path := fmt.Sprintf("%s/bench-fig6-%d.bin", c.TempDir, pct)
			if _, err := graphgen.SampleEdges(full.EdgePath, path, pct, int64(pct), genCfg); err != nil {
				return nil, err
			}
			nodes := make([]record.NodeID, p.NumNodes)
			for i := range nodes {
				nodes[i] = record.NodeID(i)
			}
			sampled, err = edgefile.GraphFromEdgeFile(path, c.TempDir, nodes, genCfg)
			if err != nil {
				return nil, err
			}
			sampledCleanup = func() { blockio.Remove(path, genCfg); blockio.Remove(sampled.NodePath, genCfg) }
		}
		ms, err := runSuite(c, "fig6", fmt.Sprintf("%d%%", pct), sampled, budget)
		if sampledCleanup != nil {
			sampledCleanup()
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// memorySweep runs the suite for a list of node-budget fractions of |V|.
func memorySweep(c Config, experiment string, g edgefile.Graph, numNodes int, fracs []float64) ([]Measurement, error) {
	var out []Measurement
	for _, f := range fracs {
		budget := int64(float64(numNodes) * f)
		if budget < 2 {
			budget = 2
		}
		label := fmt.Sprintf("M=%.2f|V|", f)
		ms, err := runSuite(c, experiment, label, g, budget)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// fig7 varies the memory budget on the web graph, including a budget larger
// than |V| where no contraction iteration is needed (the cliff of Fig. 7).
// Quick mode starts the sweep at 0.5|V|: below roughly half the nodes the
// contraction of the web-like graph densifies into a near-clique (each
// removed node rewires up to deg² edges), which is far too slow for a smoke
// run.
func fig7(c Config) ([]Measurement, error) {
	p := c.webParams()
	g, cleanup, err := webGraph(c, p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fracs := []float64{0.25, 0.5, 0.75, 1.25}
	if c.Quick {
		fracs = []float64{0.5, 0.75, 1.0, 1.25}
	}
	return memorySweep(c, "fig7", g, p.NumNodes, fracs)
}

// fig8 varies the memory budget on one synthetic dataset family (Fig. 8).
func fig8(c Config, experiment string, p graphgen.SyntheticParams) ([]Measurement, error) {
	p = c.syntheticQuick(p)
	g, cleanup, err := syntheticGraph(c, p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return memorySweep(c, experiment, g, p.NumNodes, []float64{0.125, 0.25, 0.375, 0.5, 0.75})
}

// fig9Nodes varies |V| on the Large-SCC dataset (Fig. 9a/9b).
func fig9Nodes(c Config) ([]Measurement, error) {
	base := c.syntheticQuick(graphgen.LargeSCCParams(c.Scale))
	var out []Measurement
	for _, frac := range []float64{0.25, 0.5, 1.0, 1.5, 2.0} {
		p := base
		p.NumNodes = int(float64(base.NumNodes) * frac)
		g, cleanup, err := syntheticGraph(c, p)
		if err != nil {
			return nil, err
		}
		ms, err := runSuite(c, "fig9a", fmt.Sprintf("|V|=%d", p.NumNodes), g, int64(base.NumNodes)/4)
		cleanup()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// fig9Degree varies the average degree from 2 to 6 (Fig. 9c/9d).
func fig9Degree(c Config) ([]Measurement, error) {
	base := c.syntheticQuick(graphgen.LargeSCCParams(c.Scale))
	var out []Measurement
	for _, d := range []int{2, 3, 4, 5, 6} {
		p := base
		p.AvgDegree = d
		g, cleanup, err := syntheticGraph(c, p)
		if err != nil {
			return nil, err
		}
		ms, err := runSuite(c, "fig9c", fmt.Sprintf("D=%d", d), g, int64(p.NumNodes)/4)
		cleanup()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// fig9SCCSize varies the planted SCC size (Fig. 9e/9f).
func fig9SCCSize(c Config) ([]Measurement, error) {
	base := c.syntheticQuick(graphgen.LargeSCCParams(c.Scale))
	var out []Measurement
	for _, mult := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
		p := base
		p.LargeSCCSize = int(float64(base.LargeSCCSize) * mult)
		if p.LargeSCCSize < 2 {
			p.LargeSCCSize = 2
		}
		g, cleanup, err := syntheticGraph(c, p)
		if err != nil {
			return nil, err
		}
		ms, err := runSuite(c, "fig9e", fmt.Sprintf("size=%d", p.LargeSCCSize), g, int64(p.NumNodes)/4)
		cleanup()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// fig9SCCCount varies the number of planted SCCs from 30 to 70 (Fig. 9g/9h).
func fig9SCCCount(c Config) ([]Measurement, error) {
	base := c.syntheticQuick(graphgen.LargeSCCParams(c.Scale))
	var out []Measurement
	for _, count := range []int{30, 40, 50, 60, 70} {
		p := base
		p.LargeSCCCount = count
		for p.LargeSCCSize*p.LargeSCCCount > p.NumNodes/2 && p.LargeSCCSize > 2 {
			p.LargeSCCSize /= 2
		}
		g, cleanup, err := syntheticGraph(c, p)
		if err != nil {
			return nil, err
		}
		ms, err := runSuite(c, "fig9g", fmt.Sprintf("#SCC=%d", count), g, int64(p.NumNodes)/4)
		cleanup()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// emscc demonstrates the non-termination cases of Section III: a DAG-like
// graph (Case-2) and the Large-SCC graph whose components straddle
// partitions (Case-1).
func emscc(c Config) ([]Measurement, error) {
	var out []Measurement
	run := func(x string, g edgefile.Graph, partitionEdges int) error {
		cfg := c.ioConfig(0)
		ctx, cancel := context.WithTimeout(context.Background(), c.DFSBudget)
		defer cancel()
		res, err := baseline.EMSCC(ctx, g, c.TempDir, baseline.EMOptions{
			PartitionEdges: partitionEdges,
			MaxIterations:  16,
		}, cfg)
		if errors.Is(err, context.DeadlineExceeded) {
			out = append(out, Measurement{Experiment: "emscc", Series: AlgoEM, X: x, Storage: cfg.Backend().Name(), Codec: cfg.CodecFamily(), INF: true, Note: "exceeded budget"})
			return nil
		}
		if err != nil {
			return err
		}
		m := Measurement{
			Experiment:   "emscc",
			Series:       AlgoEM,
			X:            x,
			Storage:      cfg.Backend().Name(),
			Codec:        cfg.CodecFamily(),
			Duration:     res.Duration,
			TotalIOs:     res.IO.TotalIOs(),
			RandomIOs:    res.IO.RandomIOs(),
			BytesRead:    res.IO.BytesRead,
			BytesWritten: res.IO.BytesWritten,
			Iterations:   res.Iterations,
			NumSCCs:      res.NumSCCs,
		}
		if !res.Converged {
			m.INF = true
			m.Note = "did not converge"
		}
		if res.LabelPath != "" {
			m.Partition, err = partitionFingerprint(res.LabelPath, cfg)
			blockio.Remove(res.LabelPath, cfg)
			if err != nil {
				return err
			}
		}
		out = append(out, m)
		return nil
	}

	n := 20000
	if c.Quick {
		n = 3000
	}
	genCfg := c.ioConfig(0)
	dagEdges := graphgen.DAGLayered(n, n*3, 1)
	dag, err := edgefile.WriteGraph(c.TempDir, dagEdges, nil, genCfg)
	if err != nil {
		return nil, err
	}
	defer dag.Remove(genCfg)
	if err := run("DAG (Case-2)", dag, n/2); err != nil {
		return nil, err
	}

	p := c.syntheticQuick(graphgen.LargeSCCParams(c.Scale))
	g, cleanup, err := syntheticGraph(c, p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if err := run("Large-SCC (Case-1)", g, p.NumNodes/2); err != nil {
		return nil, err
	}
	return out, nil
}

// ablation toggles the Section VII design choices on the Large-SCC default
// workload: plain Ext-SCC, full Ext-SCC-Op, Ext-SCC-Op with the Type-2
// dictionary disabled, and Ext-SCC-Op with the in-memory final solve
// disabled.
func ablation(c Config) ([]Measurement, error) {
	p := c.syntheticQuick(graphgen.LargeSCCParams(c.Scale))
	g, cleanup, err := syntheticGraph(c, p)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	budget := int64(p.NumNodes) / 4
	variants := []struct {
		series string
		opts   core.Options
	}{
		{AlgoExt, core.Options{Optimized: false}},
		{AlgoExtOp, core.Options{Optimized: true}},
		{AlgoExtNoT2, core.Options{Optimized: true, Type2DictSize: 1}},
		{AlgoExtNoMem, core.Options{Optimized: true, ForceStreamingSemi: true}},
	}
	var out []Measurement
	for _, v := range variants {
		m, err := runExt(c, "ablation", "Large-SCC default", g, budget, v.opts, v.series)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

// FormatTable renders measurements as an aligned text table grouped by
// experiment, in the style of the paper's figures.
func FormatTable(ms []Measurement) string {
	var b strings.Builder
	byExp := map[string][]Measurement{}
	var order []string
	for _, m := range ms {
		if _, ok := byExp[m.Experiment]; !ok {
			order = append(order, m.Experiment)
		}
		byExp[m.Experiment] = append(byExp[m.Experiment], m)
	}
	sort.Strings(order)
	for _, exp := range order {
		fmt.Fprintf(&b, "== %s ==\n", exp)
		fmt.Fprintf(&b, "%-28s %-22s %12s %12s %12s %6s %10s %s\n",
			"x", "algorithm", "time", "IOs", "randomIOs", "iters", "#SCC", "note")
		for _, m := range byExp[exp] {
			timeStr := m.Duration.Round(time.Millisecond).String()
			iosStr := fmt.Sprintf("%d", m.TotalIOs)
			if m.INF {
				timeStr, iosStr = "INF", "INF"
			}
			fmt.Fprintf(&b, "%-28s %-22s %12s %12s %12d %6d %10d %s\n",
				m.X, m.Series, timeStr, iosStr, m.RandomIOs, m.Iterations, m.NumSCCs, m.Note)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// WriteCSV writes measurements as CSV for plotting.  The per-phase columns
// hold wall-clock milliseconds per engine phase (0 for phases the run did
// not execute; phases nest and shard solves overlap, so phase walls need not
// sum to duration_ms).
func WriteCSV(w io.Writer, ms []Measurement) error {
	header := "experiment,x,algorithm,storage,codec,shards,duration_ms,total_ios,random_ios,bytes_read,bytes_written,iterations,num_sccs,inf,note"
	for _, p := range phaseColumns {
		header += "," + p + "_ms"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%t,%q",
			m.Experiment, m.X, m.Series, m.Storage, m.Codec, m.shardCount(),
			m.Duration.Milliseconds(), m.TotalIOs, m.RandomIOs,
			m.BytesRead, m.BytesWritten, m.Iterations, m.NumSCCs, m.INF, m.Note); err != nil {
			return err
		}
		for _, p := range phaseColumns {
			if _, err := fmt.Fprintf(w, ",%.3f", m.PhaseWallMS(p)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// shardCount normalises the measurement's shard count (0 means unsharded).
func (m Measurement) shardCount() int {
	if m.Shards < 1 {
		return 1
	}
	return m.Shards
}
