package core

import (
	"context"
	"math/rand"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// testConfig returns a configuration whose node capacity is nodeCap, forcing
// the contraction loop to run whenever the graph has more nodes than that.
func testConfig(t *testing.T, nodeCap int64) iomodel.Config {
	t.Helper()
	return iomodel.Config{
		BlockSize:  1024,
		Memory:     64 * 1024,
		NodeBudget: nodeCap,
		TempDir:    t.TempDir(),
		Stats:      &iomodel.Stats{},
	}
}

// runAndCompare runs Ext-SCC on the given edges/nodes and checks the result
// against the in-memory Tarjan partition.
func runAndCompare(t *testing.T, edges []record.Edge, nodes []record.NodeID, nodeCap int64, optimized bool) *Result {
	t.Helper()
	cfg := testConfig(t, nodeCap)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtSCC(context.Background(), g, cfg.TempDir, Options{Optimized: optimized}, cfg)
	if err != nil {
		t.Fatalf("ExtSCC: %v", err)
	}
	t.Cleanup(func() { res.Cleanup() })

	got, err := res.ReadLabels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := memgraph.FromEdges(edges, nodes).Tarjan().Labels()
	if !memgraph.SameSCCPartition(got, want) {
		t.Fatalf("SCC partition mismatch (optimized=%v):\ngot  %v\nwant %v", optimized, got, want)
	}
	if res.NumSCCs != int64(countDistinct(want)) {
		t.Fatalf("NumSCCs = %d, want %d", res.NumSCCs, countDistinct(want))
	}
	return res
}

func countDistinct(labels []record.Label) int {
	seen := map[record.SCCID]struct{}{}
	for _, l := range labels {
		seen[l.SCC] = struct{}{}
	}
	return len(seen)
}

func TestExtSCCPaperExample(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	for _, optimized := range []bool{false, true} {
		res := runAndCompare(t, edges, nodes, 3, optimized)
		if len(res.Iterations) == 0 {
			t.Fatalf("expected contraction iterations with a 3-node budget (optimized=%v)", optimized)
		}
	}
}

func TestExtSCCPaperExampleFitsInMemory(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	res := runAndCompare(t, edges, nodes, 1000, false)
	if len(res.Iterations) != 0 {
		t.Fatalf("expected no contraction when nodes fit in memory, got %d iterations", len(res.Iterations))
	}
}

func TestExtSCCSingleCycle(t *testing.T) {
	edges := graphgen.Cycle(50)
	for _, optimized := range []bool{false, true} {
		runAndCompare(t, edges, nil, 10, optimized)
	}
}

func TestExtSCCPath(t *testing.T) {
	edges := graphgen.Path(60)
	for _, optimized := range []bool{false, true} {
		runAndCompare(t, edges, nil, 10, optimized)
	}
}

func TestExtSCCDAG(t *testing.T) {
	edges := graphgen.DAGLayered(80, 200, 3)
	for _, optimized := range []bool{false, true} {
		runAndCompare(t, edges, nil, 20, optimized)
	}
}

func TestExtSCCWithIsolatedNodes(t *testing.T) {
	edges := graphgen.Cycle(20)
	nodes := make([]record.NodeID, 40)
	for i := range nodes {
		nodes[i] = record.NodeID(i) // nodes 20..39 are isolated
	}
	for _, optimized := range []bool{false, true} {
		runAndCompare(t, edges, nodes, 8, optimized)
	}
}

func TestExtSCCSelfLoopsAndParallelEdges(t *testing.T) {
	edges := []record.Edge{
		{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 3}, {U: 3, V: 4}, {U: 4, V: 3}, {U: 5, V: 5},
		{U: 6, V: 7}, {U: 7, V: 6}, {U: 7, V: 6},
	}
	for _, optimized := range []bool{false, true} {
		runAndCompare(t, edges, nil, 3, optimized)
	}
}

func TestExtSCCEmptyEdgeSet(t *testing.T) {
	nodes := make([]record.NodeID, 30)
	for i := range nodes {
		nodes[i] = record.NodeID(i)
	}
	for _, optimized := range []bool{false, true} {
		runAndCompare(t, nil, nodes, 5, optimized)
	}
}

func TestExtSCCRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		edges := graphgen.Random(60, 150, seed)
		for _, optimized := range []bool{false, true} {
			runAndCompare(t, edges, nil, 12, optimized)
		}
	}
}

func TestExtSCCSyntheticWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic workloads are slow in -short mode")
	}
	params := []graphgen.SyntheticParams{
		{NumNodes: 300, AvgDegree: 3, MassiveSCCSize: 60, MassiveSCCCount: 1, Seed: 1},
		{NumNodes: 300, AvgDegree: 3, LargeSCCSize: 20, LargeSCCCount: 5, Seed: 2},
		{NumNodes: 300, AvgDegree: 3, SmallSCCSize: 5, SmallSCCCount: 20, Seed: 3},
	}
	for _, p := range params {
		edges, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, optimized := range []bool{false, true} {
			runAndCompare(t, edges, p.AllNodes(), 60, optimized)
		}
	}
}

func TestExtSCCMatchesTarjanProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow in -short mode")
	}
	f := func(seed int64, sizeHint uint8) bool {
		n := 20 + int(sizeHint%40)
		m := n * 3
		edges := graphgen.Random(n, m, seed)
		cfg := iomodel.Config{
			BlockSize:  1024,
			Memory:     64 * 1024,
			NodeBudget: int64(n/4 + 2),
			TempDir:    t.TempDir(),
			Stats:      &iomodel.Stats{},
		}
		g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
		if err != nil {
			return false
		}
		res, err := ExtSCC(context.Background(), g, cfg.TempDir, Options{Optimized: seed%2 == 0}, cfg)
		if err != nil {
			return false
		}
		defer res.Cleanup()
		got, err := res.ReadLabels(cfg)
		if err != nil {
			return false
		}
		want := memgraph.FromEdges(edges, nil).Tarjan().Labels()
		return memgraph.SameSCCPartition(got, want)
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 15,
		Rand:     rand.New(rand.NewSource(99)),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestExtSCCOptimizedUsesFewerOrEqualIterations(t *testing.T) {
	edges := graphgen.Random(200, 600, 11)
	basic := runAndCompare(t, edges, nil, 30, false)
	opt := runAndCompare(t, edges, nil, 30, true)
	if len(opt.Iterations) > len(basic.Iterations)+1 {
		t.Fatalf("optimized used %d iterations, basic %d", len(opt.Iterations), len(basic.Iterations))
	}
}

func TestExtSCCPerformsNoRandomIO(t *testing.T) {
	cfg := testConfig(t, 10)
	edges := graphgen.Random(100, 300, 5)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := cfg.Stats.Snapshot()
	res, err := ExtSCC(context.Background(), g, cfg.TempDir, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cleanup()
	delta := cfg.Stats.Snapshot().Sub(before)
	if delta.TotalIOs() == 0 {
		t.Fatal("expected the run to charge I/O")
	}
	// The central claim of the paper: contraction + expansion only ever scan
	// and sort sequentially.
	if delta.RandomIOs() != 0 {
		t.Fatalf("Ext-SCC performed %d random I/Os, want 0 (%+v)", delta.RandomIOs(), delta)
	}
	if res.IO.TotalIOs() != delta.TotalIOs() {
		t.Fatalf("Result.IO (%d) does not match measured delta (%d)", res.IO.TotalIOs(), delta.TotalIOs())
	}
}

func TestExtSCCTheoremDegreeBound(t *testing.T) {
	// Theorem 5.3: any removed node's degree is at most sqrt(2 |E_i|).
	edges := graphgen.Random(150, 450, 21)
	res := runAndCompare(t, edges, nil, 20, false)
	for _, it := range res.Iterations {
		bound := 2 * it.NumEdges
		if int64(it.MaxRemovedDegree)*int64(it.MaxRemovedDegree) > bound {
			t.Fatalf("iteration %d: removed degree %d exceeds sqrt(2*%d)", it.Index, it.MaxRemovedDegree, it.NumEdges)
		}
	}
}

func TestExtSCCIterationStatsConsistent(t *testing.T) {
	edges := graphgen.Random(120, 360, 8)
	res := runAndCompare(t, edges, nil, 15, true)
	if len(res.Iterations) == 0 {
		t.Fatal("expected at least one contraction iteration")
	}
	for i, it := range res.Iterations {
		if it.Index != i+1 {
			t.Fatalf("iteration %d has index %d", i, it.Index)
		}
		if it.NumRemoved <= 0 {
			t.Fatalf("iteration %d removed no nodes", it.Index)
		}
		if i > 0 && it.NumNodes >= res.Iterations[i-1].NumNodes {
			t.Fatalf("node count did not shrink: %d -> %d", res.Iterations[i-1].NumNodes, it.NumNodes)
		}
	}
}

func TestExtSCCCancelled(t *testing.T) {
	cfg := testConfig(t, 5)
	edges := graphgen.Random(200, 600, 2)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ExtSCC(ctx, g, cfg.TempDir, Options{}, cfg)
	if err != context.Canceled {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// TestExtSCCCancelledMidContraction cancels from the OnIteration callback and
// verifies that the run stops within one contraction iteration and removes
// its run directory.
func TestExtSCCCancelledMidContraction(t *testing.T) {
	cfg := testConfig(t, 5)
	edges := graphgen.Random(200, 600, 2)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runDir, err := cfg.Backend().MkdirTemp(cfg.TempDir, "cancel-run-")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iterations := 0
	_, err = ExtSCC(ctx, g, runDir, Options{OnIteration: func(IterationStats) {
		iterations++
		cancel()
	}}, cfg)
	if err != context.Canceled {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if iterations != 1 {
		t.Fatalf("run continued for %d iterations after cancellation", iterations)
	}
	entries, err := cfg.Backend().List(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cancelled run left temp files behind: %v", entries)
	}
}

func TestExtSCCForceStreamingSemi(t *testing.T) {
	edges := graphgen.Cycle(40)
	cfg := testConfig(t, 10)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtSCC(context.Background(), g, cfg.TempDir, Options{ForceStreamingSemi: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cleanup()
	if res.SemiExternal.UsedInMemory {
		t.Fatal("semi-external solver took the in-memory path despite ForceStreamingSemi")
	}
	got, err := res.ReadLabels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := memgraph.FromEdges(edges, nil).Tarjan().Labels()
	if !memgraph.SameSCCPartition(got, want) {
		t.Fatal("partition mismatch with streaming semi-external solver")
	}
}

func TestExtSCCKeepTemp(t *testing.T) {
	edges := graphgen.Cycle(30)
	cfg := testConfig(t, 8)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtSCC(context.Background(), g, cfg.TempDir, Options{KeepTemp: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := cfg.Backend().List(res.RunDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("expected intermediate files to be kept, found %d entries", len(entries))
	}
	if err := res.Cleanup(); err != nil {
		t.Fatal(err)
	}
	left, err := cfg.Backend().List(res.RunDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("Cleanup left %d files in the run directory", len(left))
	}
}

func TestExtSCCFreesIntermediateGraphs(t *testing.T) {
	// Expansion never reads G_i, so a run drops each contracted graph's
	// files once the next contraction (or the base case) has read them:
	// after iteration k the run directory holds G_k's edge and node files
	// only, while KeepTemp keeps all k of them.  The input graph's files
	// are never touched.
	edges := graphgen.Random(300, 900, 5)
	for _, keep := range []bool{false, true} {
		mem := storage.NewMem()
		cfg := testConfig(t, 20)
		cfg.Storage, cfg.TempDir = mem, "/run"
		g, err := edgefile.WriteGraph("/in", edges, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		count := func(files []string, prefix string) int {
			n := 0
			for _, f := range files {
				if strings.HasPrefix(path.Base(f), prefix) {
					n++
				}
			}
			return n
		}
		var iterations int
		opts := Options{Optimized: true, KeepTemp: keep, OnIteration: func(it IterationStats) {
			iterations++
			files, err := mem.List("/run")
			if err != nil {
				t.Error(err)
				return
			}
			want := 1
			if keep {
				want = it.Index
			}
			for _, prefix := range []string{"next-edges-", "cover-"} {
				if n := count(files, prefix); n != want {
					t.Errorf("keep=%v, after iteration %d: %d %s files in the run directory, want %d", keep, it.Index, n, prefix, want)
				}
			}
		}}
		res, err := ExtSCC(context.Background(), g, "/run", opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if iterations < 2 {
			t.Fatalf("keep=%v: %d contraction iterations; the check needs at least 2", keep, iterations)
		}
		if in, _ := mem.List("/in"); !slices.Equal(in, []string{g.EdgePath, g.NodePath}) { // List sorts: graph-edges-… < graph-nodes-…
			t.Fatalf("keep=%v: input directory holds %v, want the input graph's two files", keep, in)
		}
		if left, _ := mem.List(res.RunDir); !keep && !slices.Equal(left, []string{res.LabelPath}) {
			t.Fatalf("run directory holds %v, want only the label file %s", left, res.LabelPath)
		}
		res.Cleanup()
	}
}
