package semiscc

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
)

func testConfig(t *testing.T) iomodel.Config {
	t.Helper()
	return iomodel.Config{BlockSize: 512, Memory: 32 * 1024, TempDir: t.TempDir(), Stats: &iomodel.Stats{}}
}

// mode is how a case runs the solver.
type mode int

const (
	// fits gives the solver room for every edge in one batch.
	fits mode = iota
	// batched gives it a memory that splits the first scan into three or
	// more batches (as many as the graph's edges allow).
	batched
	// forced sets ForceStreaming under the memory of fits.
	forced
)

var modes = []mode{fits, batched, forced}

func (m mode) String() string { return [...]string{"fits", "batched", "forced"}[m] }

// check writes the graph, solves it under m and asserts the solver's
// contract: the partition of memgraph's Tarjan, every label its SCC's
// smallest member id, NumSCCs the number of distinct labels, one label per
// node, sequential I/O only, and the scan count the mode implies.
func check(t *testing.T, edges []record.Edge, nodes []record.NodeID, m mode) Result {
	t.Helper()
	cfg := testConfig(t)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crossing := 0
	for _, e := range edges {
		if e.U != e.V {
			crossing++
		}
	}
	run := cfg
	run.Memory = max(cfg.Memory, 2*pairBytes*int64(len(edges)))
	opts := Options{}
	switch m {
	case batched:
		run.Memory = 2 * pairBytes * int64(max(crossing/3, 1))
	case forced:
		opts.ForceStreaming = true
	}
	before := cfg.Stats.Snapshot()
	res, err := Compute(g, cfg.TempDir, opts, run)
	if err != nil {
		t.Fatal(err)
	}
	if delta := cfg.Stats.Snapshot().Sub(before); delta.RandomIOs() != 0 {
		t.Fatalf("%v: semi-external solver performed %d random I/Os", m, delta.RandomIOs())
	}
	got, err := recio.ReadAll(res.LabelPath, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := memgraph.FromEdges(edges, nodes).Tarjan().Labels()
	if !memgraph.SameSCCPartition(got, want) {
		t.Fatalf("%v: partition mismatch\ngot  %v\nwant %v", m, got, want)
	}
	smallest := map[record.SCCID]record.NodeID{}
	for _, l := range got {
		if _, ok := smallest[l.SCC]; !ok {
			smallest[l.SCC] = l.Node // labels are sorted by node
		}
	}
	for scc, node := range smallest {
		if scc != node {
			t.Fatalf("%v: SCC labelled %d, but its smallest member is %d", m, scc, node)
		}
	}
	if res.NumSCCs != int64(len(smallest)) {
		t.Fatalf("%v: NumSCCs = %d, labels name %d SCCs", m, res.NumSCCs, len(smallest))
	}
	if res.NumLabels != g.NumNodes || int64(len(got)) != g.NumNodes {
		t.Fatalf("%v: %d labels reported, %d written, for %d nodes", m, res.NumLabels, len(got), g.NumNodes)
	}
	switch {
	case m == fits && (res.EdgeScans != 1 || !res.UsedInMemory):
		t.Fatalf("fits: %d scans (in memory %v), want exactly 1 for edges within M/2", res.EdgeScans, res.UsedInMemory)
	case m == batched && crossing >= 2 && (res.EdgeScans < 2 || res.UsedInMemory):
		t.Fatalf("batched: %d scans (in memory %v), want at least 2", res.EdgeScans, res.UsedInMemory)
	case m == forced && res.UsedInMemory:
		t.Fatal("forced: ForceStreaming ignored")
	case m == forced && crossing >= 1 && res.EdgeScans < 2:
		t.Fatalf("forced: %d scans, want at least 2", res.EdgeScans)
	}
	return res
}

// checkModes runs check under every mode.
func checkModes(t *testing.T, edges []record.Edge, nodes []record.NodeID) {
	t.Helper()
	for _, m := range modes {
		t.Run(m.String(), func(t *testing.T) { check(t, edges, nodes, m) })
	}
}

func TestInMemoryFastPath(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	res := check(t, edges, nodes, fits)
	if !res.UsedInMemory {
		t.Fatal("expected one in-memory batch for a tiny graph")
	}
	if res.NumSCCs != 5 {
		t.Fatalf("NumSCCs = %d, want 5", res.NumSCCs)
	}
}

func TestStreamingPaperExample(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	for _, m := range []mode{batched, forced} {
		res := check(t, edges, nodes, m)
		if res.NumSCCs != 5 {
			t.Fatalf("%v: NumSCCs = %d, want 5", m, res.NumSCCs)
		}
	}
}

func TestStreamingStructuredGraphs(t *testing.T) {
	cases := []struct {
		name  string
		edges []record.Edge
		nodes []record.NodeID
	}{
		{"cycle", graphgen.Cycle(60), nil},
		{"path", graphgen.Path(40), nil},
		{"dag", graphgen.DAGLayered(50, 120, 1), nil},
		{"random", graphgen.Random(80, 240, 2), nil},
		{"selfloops", []record.Edge{{U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 1}, {U: 3, V: 3}}, nil},
		{"isolated", graphgen.Cycle(10), []record.NodeID{50, 51, 52}},
		{"empty", nil, []record.NodeID{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkModes(t, tc.edges, tc.nodes) })
	}
}

// reversed returns edges in reverse order.
func reversed(edges []record.Edge) []record.Edge {
	out := slices.Clone(edges)
	slices.Reverse(out)
	return out
}

// twoCycles returns two 1,000-node cycles, shuffled, with a link from the
// first to the second as the first edge and, when back is set, a link from
// the second to the first as the last: with both links the two cycles form
// one SCC whose closing edges lie batches apart.
func twoCycles(back bool) []record.Edge {
	edges := graphgen.Cycle(1000)
	for _, e := range graphgen.Cycle(1000) {
		edges = append(edges, record.Edge{U: e.U + 1000, V: e.V + 1000})
	}
	rand.New(rand.NewSource(5)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	edges = append([]record.Edge{{U: 5, V: 1500}}, edges...)
	if back {
		edges = append(edges, record.Edge{U: 1700, V: 20})
	}
	return edges
}

// sparseIDs spreads a random graph's ids over 28 bits with uneven gaps, so
// the id lookup sees crowded and empty buckets.
func sparseIDs() []record.Edge {
	edges := graphgen.Random(300, 1200, 9)
	for i, e := range edges {
		edges[i] = record.Edge{U: e.U*e.U*2_900 + 7, V: e.V*e.V*2_900 + 7}
	}
	return append(edges, graphgen.Cycle(40)...)
}

// TestAdversarialOrders runs edge orders that defeat a solver making one
// pass per unit of depth or diameter.
func TestAdversarialOrders(t *testing.T) {
	cases := []struct {
		name  string
		edges []record.Edge
	}{
		{"reverse-cycle", reversed(graphgen.Cycle(2000))},
		{"reverse-path", reversed(graphgen.Path(3000))},
		{"path", graphgen.Path(3000)},
		{"layered-dag", graphgen.DAGLayered(2000, 6000, 3)},
		{"two-sccs-linked-both-ways", twoCycles(true)},
		{"two-sccs-linked-one-way", twoCycles(false)},
		{"sparse-ids", sparseIDs()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkModes(t, tc.edges, nil) })
	}
	t.Run("linked-both-ways-is-one-scc", func(t *testing.T) {
		if res := check(t, twoCycles(true), nil, batched); res.NumSCCs != 1 {
			t.Fatalf("NumSCCs = %d, want 1", res.NumSCCs)
		}
		if res := check(t, twoCycles(false), nil, batched); res.NumSCCs != 2 {
			t.Fatalf("NumSCCs = %d, want 2", res.NumSCCs)
		}
	})
}

func TestStreamingUsesOnlySequentialIO(t *testing.T) {
	cfg := testConfig(t)
	edges := graphgen.Random(100, 400, 7)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {ForceStreaming: true}} {
		before := cfg.Stats.Snapshot()
		if _, err := Compute(g, cfg.TempDir, opts, cfg); err != nil {
			t.Fatal(err)
		}
		delta := cfg.Stats.Snapshot().Sub(before)
		if delta.RandomIOs() != 0 {
			t.Fatalf("%+v: semi-external solver performed %d random I/Os", opts, delta.RandomIOs())
		}
		if delta.SemiExternalRuns != 1 {
			t.Fatalf("%+v: SemiExternalRuns = %d", opts, delta.SemiExternalRuns)
		}
		wantInMemory := int64(1)
		if opts.ForceStreaming {
			wantInMemory = 0
		}
		if delta.InMemorySolves != wantInMemory {
			t.Fatalf("%+v: InMemorySolves = %d, want %d", opts, delta.InMemorySolves, wantInMemory)
		}
	}
}

// TestBatchSolveAllocatesNothing: solving a batch reuses the solver's
// arrays and allocates nothing.  The graph is a DAG, so no set merges and
// every batch deepens the forest.
func TestBatchSolveAllocatesNothing(t *testing.T) {
	edges := graphgen.DAGLayered(400, 4000, 11)
	nodes := make([]record.NodeID, 400)
	for i := range nodes {
		nodes[i] = record.NodeID(i)
	}
	s := newSolver(nodes, len(edges))
	next := 0
	allocs := testing.AllocsPerRun(20, func() {
		s.batch = s.batch[:0]
		for _, e := range edges[next : next+200] {
			if a, b := s.find(int32(e.U)), s.find(int32(e.V)); a != b {
				s.batch = append(s.batch, pair{a, b})
			}
		}
		next = (next + 200) % len(edges)
		s.solve()
	})
	if allocs != 0 {
		t.Fatalf("a batch solve allocates %.1f times", allocs)
	}
}

func TestNodeMetadataMismatch(t *testing.T) {
	cfg := testConfig(t)
	g, err := edgefile.WriteGraph(cfg.TempDir, graphgen.Cycle(5), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.NumNodes = 99
	if _, err := Compute(g, cfg.TempDir, Options{}, cfg); err == nil {
		t.Fatal("expected an error for inconsistent node metadata")
	}
}

func TestCountSCCsInFile(t *testing.T) {
	cfg := testConfig(t)
	path := cfg.TempDir + "/labels.bin"
	labels := []record.Label{{Node: 1, SCC: 1}, {Node: 2, SCC: 1}, {Node: 3, SCC: 3}, {Node: 4, SCC: 4}}
	if err := recio.WriteSlice(path, record.LabelCodec{}, cfg, labels); err != nil {
		t.Fatal(err)
	}
	n, err := CountSCCsInFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("CountSCCsInFile = %d, want 3", n)
	}
}

func TestCountSCCsInFileConstantMemory(t *testing.T) {
	// The count keeps nothing per component: counting 2^16 singletons
	// allocates no more than counting one component of 2^16 nodes.
	cfg := testConfig(t)
	const n = 1 << 16
	alloc := func(name string, scc func(record.NodeID) record.SCCID, want int64) uint64 {
		path := cfg.TempDir + "/" + name
		labels := make([]record.Label, n)
		for i := range labels {
			labels[i] = record.Label{Node: record.NodeID(i), SCC: scc(record.NodeID(i))}
		}
		if err := recio.WriteSlice(path, record.LabelCodec{}, cfg, labels); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := CountSCCsInFile(path, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: CountSCCsInFile = %d, want %d", name, got, want)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	one := alloc("one.bin", func(record.NodeID) record.SCCID { return 0 }, 1)
	singletons := alloc("singletons.bin", func(v record.NodeID) record.SCCID { return v }, n)
	if singletons > one+4096 {
		t.Fatalf("counting %d singletons allocated %d bytes, one component %d", n, singletons, one)
	}
}

func TestStreamingLabelsUseMemberIDs(t *testing.T) {
	for _, m := range modes {
		check(t, graphgen.Random(60, 200, 3), nil, m)
	}
}

func TestIDIndex(t *testing.T) {
	for _, ids := range [][]record.NodeID{
		nil,
		{7},
		{0, 1, 2, 3, 4},
		{3, 4, 1 << 27, 1<<28 - 1},
		{1, 2, 3, 4, 5, 6, 7, 8, 1 << 31, 1<<32 - 1},
	} {
		x := newIDIndex(ids)
		for i, id := range ids {
			if got, ok := x.lookup(id); !ok || got != int32(i) {
				t.Fatalf("%v: lookup(%d) = %d, %v; want %d", ids, id, got, ok, i)
			}
		}
		for _, id := range []record.NodeID{5, 6, 1<<27 + 1, 1 << 30, 1<<32 - 2} {
			if !slices.Contains(ids, id) {
				if got, ok := x.lookup(id); ok {
					t.Fatalf("%v: lookup(%d) = %d for a missing id", ids, id, got)
				}
			}
		}
		if buckets := len(x.first) - 1; len(ids) > 0 && buckets > len(ids) {
			t.Fatalf("%v: %d buckets for %d ids", ids, buckets, len(ids))
		}
	}
}
