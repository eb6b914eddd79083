package condense

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

func testConfig(t *testing.T, codec string) iomodel.Config {
	t.Helper()
	return iomodel.Config{
		BlockSize: 256,
		Memory:    8 * 1024,
		TempDir:   t.TempDir(),
		Codec:     codec,
		Stats:     &iomodel.Stats{},
	}
}

// tarjan computes an SCC labelling of the given edges with an iterative
// Tarjan, providing ground truth independent of the engine.
func tarjan(numNodes int, edges []record.Edge) map[record.NodeID]record.SCCID {
	adj := make([][]record.NodeID, numNodes)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
	}
	const unvisited = -1
	index := make([]int, numNodes)
	low := make([]int, numNodes)
	onStack := make([]bool, numNodes)
	for i := range index {
		index[i] = unvisited
	}
	var stack []record.NodeID
	labels := map[record.NodeID]record.SCCID{}
	next := 0
	var nextSCC record.SCCID

	type frame struct {
		v  record.NodeID
		ei int
	}
	for start := 0; start < numNodes; start++ {
		if index[start] != unvisited {
			continue
		}
		call := []frame{{v: record.NodeID(start)}}
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == unvisited {
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					labels[w] = nextSCC
					if w == v {
						break
					}
				}
				nextSCC++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return labels
}

// writeGraphFiles writes an edge file (input order) and a node-sorted label
// file for the labelling, returning both paths.
func writeGraphFiles(t *testing.T, dir string, edges []record.Edge, labels map[record.NodeID]record.SCCID, cfg iomodel.Config) (string, string) {
	t.Helper()
	edgePath := filepath.Join(dir, "graph.edges")
	ew, err := recio.NewWriter(edgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := ew.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	nodes := make([]record.NodeID, 0, len(labels))
	for n := range labels {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	labelPath := filepath.Join(dir, "graph.labels")
	lw, err := recio.NewWriter(labelPath, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := lw.Write(record.Label{Node: n, SCC: labels[n]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	return edgePath, labelPath
}

func randomGraph(rng *rand.Rand, numNodes, numEdges int) []record.Edge {
	edges := make([]record.Edge, numEdges)
	for i := range edges {
		edges[i] = record.Edge{
			U: record.NodeID(rng.Intn(numNodes)),
			V: record.NodeID(rng.Intn(numNodes)),
		}
	}
	return edges
}

func sameDAG(t *testing.T, got, want *DAG) {
	t.Helper()
	if got.NumEdges != want.NumEdges {
		t.Fatalf("NumEdges = %d, want %d", got.NumEdges, want.NumEdges)
	}
	if !reflect.DeepEqual(got.Succ, want.Succ) {
		t.Fatalf("Succ mismatch:\n got %v\nwant %v", got.Succ, want.Succ)
	}
	if !reflect.DeepEqual(got.Pred, want.Pred) {
		t.Fatalf("Pred mismatch:\n got %v\nwant %v", got.Pred, want.Pred)
	}
}

// TestBuildMatchesFromMemory pins the external build against the in-memory
// condensation on random graphs, for both codec families and tight memory
// budgets that force multi-run external sorts.
func TestBuildMatchesFromMemory(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		t.Run(codec, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 6; trial++ {
				cfg := testConfig(t, codec)
				numNodes := 20 + rng.Intn(180)
				edges := randomGraph(rng, numNodes, numNodes*3)
				labels := tarjan(numNodes, edges)
				edgePath, labelPath := writeGraphFiles(t, cfg.TempDir, edges, labels, cfg)
				outPath := filepath.Join(cfg.TempDir, "dag.edges")
				n, err := Build(context.Background(), edgePath, labelPath, outPath, cfg)
				if err != nil {
					t.Fatalf("trial %d: Build: %v", trial, err)
				}
				got, err := Load(outPath, cfg)
				if err != nil {
					t.Fatalf("trial %d: Load: %v", trial, err)
				}
				want := FromMemory(labels, edges)
				if n != want.NumEdges {
					t.Fatalf("trial %d: Build reported %d edges, want %d", trial, n, want.NumEdges)
				}
				sameDAG(t, got, want)
			}
		})
	}
}

// TestBuildDropsIntraComponentAndDuplicates checks the two reduction rules on
// a handcrafted graph: a 3-cycle {0,1,2}, a 2-cycle {3,4}, parallel
// inter-component edges, and a self-loop.
func TestBuildDropsIntraComponentAndDuplicates(t *testing.T) {
	edges := []record.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // SCC A
		{U: 3, V: 4}, {U: 4, V: 3}, // SCC B
		{U: 0, V: 3}, {U: 1, V: 4}, {U: 2, V: 3}, // three copies of A -> B
		{U: 4, V: 5},               // B -> {5}
		{U: 5, V: 5},               // self-loop: intra-component
		{U: 1, V: 0},               // extra intra-A edge
		{U: 0, V: 3}, {U: 0, V: 3}, // literal duplicates
	}
	labels := tarjan(6, edges)
	cfg := testConfig(t, "")
	edgePath, labelPath := writeGraphFiles(t, cfg.TempDir, edges, labels, cfg)
	outPath := filepath.Join(cfg.TempDir, "dag.edges")
	n, err := Build(context.Background(), edgePath, labelPath, outPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("DAG edges = %d, want 2 (A->B, B->{5})", n)
	}
	d, err := Load(outPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := labels[0], labels[3], labels[5]
	if !d.Reaches(a, c) || !d.Reaches(a, b) || !d.Reaches(b, c) {
		t.Fatalf("expected A -> B -> {5} chain in %v", d.Succ)
	}
	if d.Reaches(c, a) || d.Reaches(b, a) {
		t.Fatalf("unexpected reverse reachability in %v", d.Succ)
	}
}

// TestBuildUnlabelledNode verifies the merge join surfaces a missing label as
// an error rather than mislabelling.
func TestBuildUnlabelledNode(t *testing.T) {
	cfg := testConfig(t, "")
	edges := []record.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	labels := map[record.NodeID]record.SCCID{0: 0, 1: 1} // node 2 missing
	edgePath, labelPath := writeGraphFiles(t, cfg.TempDir, edges, labels, cfg)
	outPath := filepath.Join(cfg.TempDir, "dag.edges")
	if _, err := Build(context.Background(), edgePath, labelPath, outPath, cfg); err == nil {
		t.Fatal("Build succeeded with an unlabelled endpoint")
	}
}

// TestBuildPartialKeepsUnlistedNodes pins the partial mapping EM-SCC relabels
// through: a node the mapping does not list keeps its own id, and the output
// is the mapped edges sorted by (U, V), without duplicates or self-loops.
// Build, under the strict rule, fails on the same mapping.  Random graphs at
// both codec families, with several nodes per listed representative and a
// node listed twice (EM-SCC's relabel file can list a node once per
// partition; the first, smallest representative wins).
func TestBuildPartialKeepsUnlistedNodes(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		t.Run(codec, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 4; trial++ {
				cfg := testConfig(t, codec)
				numNodes := 40 + rng.Intn(160)
				edges := randomGraph(rng, numNodes, numNodes*3)
				mapping := map[record.NodeID]record.SCCID{}
				var listed []record.Label
				for n := 0; n < numNodes; n++ {
					if rng.Intn(3) == 0 {
						rep := record.SCCID(rng.Intn(n + 1))
						mapping[record.NodeID(n)] = rep
						listed = append(listed, record.Label{Node: record.NodeID(n), SCC: rep})
						if n > 0 && rng.Intn(4) == 0 {
							listed = append(listed, record.Label{Node: record.NodeID(n), SCC: rep + 1})
						}
					}
				}
				mappingPath := filepath.Join(cfg.TempDir, "mapping.labels")
				if err := recio.WriteSlice(mappingPath, record.LabelCodec{}, cfg, listed); err != nil {
					t.Fatal(err)
				}
				edgePath, _ := writeGraphFiles(t, cfg.TempDir, edges, nil, cfg)

				image := func(n record.NodeID) record.NodeID {
					if rep, ok := mapping[n]; ok {
						return rep
					}
					return n
				}
				var want []record.Edge
				for _, e := range edges {
					if u, v := image(e.U), image(e.V); u != v {
						want = append(want, record.Edge{U: u, V: v})
					}
				}
				sort.Slice(want, func(i, j int) bool { return record.EdgeBySource(want[i]).Less(record.EdgeBySource(want[j])) })
				want = slices.Compact(want)

				outPath := filepath.Join(cfg.TempDir, "relabelled.edges")
				n, err := BuildPartial(context.Background(), edgePath, mappingPath, outPath, cfg)
				if err != nil {
					t.Fatalf("trial %d: BuildPartial: %v", trial, err)
				}
				got, err := recio.ReadAll(outPath, record.EdgeCodec{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n != int64(len(got)) || !slices.Equal(got, want) {
					t.Fatalf("trial %d: BuildPartial wrote %d edges (reported %d), want %d:\n got %v\nwant %v", trial, len(got), n, len(want), got, want)
				}
				if len(mapping) < numNodes {
					if _, err := Build(context.Background(), edgePath, mappingPath, filepath.Join(cfg.TempDir, "strict.edges"), cfg); err == nil {
						t.Fatalf("trial %d: Build succeeded under a mapping that lists %d of %d nodes", trial, len(mapping), numNodes)
					}
				}
			}
		})
	}
}

// TestBuildCancellation verifies a cancelled context aborts the build and
// leaves no intermediate files behind in the temp dir.
func TestBuildCancellation(t *testing.T) {
	cfg := testConfig(t, "")
	rng := rand.New(rand.NewSource(11))
	edges := randomGraph(rng, 500, 4000)
	labels := tarjan(500, edges)
	edgePath, labelPath := writeGraphFiles(t, cfg.TempDir, edges, labels, cfg)
	outPath := filepath.Join(cfg.TempDir, "dag.edges")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, edgePath, labelPath, outPath, cfg); err == nil {
		t.Fatal("Build succeeded under a cancelled context")
	}
	entries, err := os.ReadDir(cfg.TempDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(edgePath) && e.Name() != filepath.Base(labelPath) {
			t.Fatalf("leaked intermediate %q after cancelled build", e.Name())
		}
	}
}

// TestIndexMatchesOracle pins the 2-hop index against exhaustive BFS over the
// DAG for every component pair, on random graphs of varying density.
func TestIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		cfg := testConfig(t, "")
		numNodes := 15 + rng.Intn(120)
		density := 1 + rng.Intn(4)
		edges := randomGraph(rng, numNodes, numNodes*density)
		labels := tarjan(numNodes, edges)
		dag := FromMemory(labels, edges)
		ix, err := BuildIndex(context.Background(), dag, cfg.TempDir, cfg)
		if err != nil {
			t.Fatalf("trial %d: BuildIndex: %v", trial, err)
		}
		comps := map[record.SCCID]struct{}{}
		for _, c := range labels {
			comps[c] = struct{}{}
		}
		for u := range comps {
			for v := range comps {
				if got, want := ix.Reaches(u, v), dag.Reaches(u, v); got != want {
					t.Fatalf("trial %d: Reaches(%d, %d) = %v, oracle %v", trial, u, v, got, want)
				}
			}
		}
	}
}

// TestIndexSpillFiles checks the materialised hop-label files: they exist,
// are sorted by (component, rank), and together hold Stats().Entries records.
func TestIndexSpillFiles(t *testing.T) {
	cfg := testConfig(t, "")
	rng := rand.New(rand.NewSource(5))
	edges := randomGraph(rng, 80, 200)
	labels := tarjan(80, edges)
	dag := FromMemory(labels, edges)
	ix, err := BuildIndex(context.Background(), dag, cfg.TempDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, path := range []string{ix.OutPath, ix.InPath} {
		r, err := recio.NewReader(path, record.LabelCodec{}, cfg)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		var prev record.Label
		first := true
		it := r.Iter()
		for {
			l, ok, err := it.Next()
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			if !ok {
				break
			}
			if !first && (l.Node < prev.Node || (l.Node == prev.Node && l.SCC <= prev.SCC)) {
				t.Fatalf("%s not strictly sorted: %v after %v", path, l, prev)
			}
			prev, first = l, false
			total++
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if total != ix.Stats().Entries {
		t.Fatalf("spilled %d entries, Stats reports %d", total, ix.Stats().Entries)
	}
}

// TestIndexEmptyDAG: a graph with a single component has an empty DAG; every
// component reaches itself only.
func TestIndexEmptyDAG(t *testing.T) {
	cfg := testConfig(t, "")
	dag := FromMemory(map[record.NodeID]record.SCCID{0: 0, 1: 0}, []record.Edge{{U: 0, V: 1}, {U: 1, V: 0}})
	ix, err := BuildIndex(context.Background(), dag, cfg.TempDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Reaches(0, 0) {
		t.Fatal("component must reach itself")
	}
	if ix.Reaches(0, 1) || ix.Reaches(1, 0) {
		t.Fatal("isolated components must not reach each other")
	}
}
