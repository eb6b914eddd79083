package contraction

import (
	"cmp"
	"context"
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

func buildGraph(t *testing.T, cfg iomodel.Config, edges []record.Edge, nodes []record.NodeID) edgefile.Graph {
	t.Helper()
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// contractAndCheckInvariants runs one contraction step and verifies the three
// properties of Section V: contractible, recoverable (vertex cover of the
// relevant edge set) and SCC-preservable.
func contractAndCheckInvariants(t *testing.T, edges []record.Edge, nodes []record.NodeID, optimized bool) Result {
	t.Helper()
	cfg := testConfig(t)
	g := buildGraph(t, cfg, edges, nodes)
	res, err := Contract(context.Background(), g, cfg.TempDir, Options{Optimized: optimized}, cfg)
	if err != nil {
		t.Fatalf("Contract(optimized=%v): %v", optimized, err)
	}

	// Contractible: at least one node removed and the kept set is smaller.
	if res.NumRemoved < 1 {
		t.Fatal("no node removed")
	}
	if res.Next.NumNodes >= g.NumNodes {
		t.Fatalf("node count did not shrink: %d -> %d", g.NumNodes, res.Next.NumNodes)
	}
	if res.Next.NumNodes+res.NumRemoved != g.NumNodes {
		t.Fatalf("kept (%d) + removed (%d) != |V| (%d)", res.Next.NumNodes, res.NumRemoved, g.NumNodes)
	}

	kept, err := recio.ReadAll(res.Next.NodePath, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keptSet := map[record.NodeID]bool{}
	for _, n := range kept {
		keptSet[n] = true
	}
	removed := checkRemovedStep(t, cfg, res.RemovedPath, edges, g, keptSet, optimized)

	// Every edge of the contracted graph touches only kept nodes.
	nextEdges, err := recio.ReadAll(res.Next.EdgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range nextEdges {
		if !keptSet[e.U] || !keptSet[e.V] {
			t.Fatalf("contracted edge %v touches a removed node", e)
		}
	}

	// Recoverable / vertex cover: every original edge between two distinct
	// non-trivial endpoints has at least one endpoint kept.  (Self-loops and,
	// in the optimised variant, edges incident to trivially-trimmed nodes
	// carry no SCC information and are exempt; for the basic variant only
	// self-loops are exempt.)
	trivial := map[record.NodeID]bool{}
	if optimized {
		degIn := map[record.NodeID]int{}
		degOut := map[record.NodeID]int{}
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			degOut[e.U]++
			degIn[e.V]++
		}
		for _, n := range append(append([]record.NodeID{}, removed...), kept...) {
			if degIn[n] == 0 || degOut[n] == 0 {
				trivial[n] = true
			}
		}
	}
	for _, e := range edges {
		if e.U == e.V || trivial[e.U] || trivial[e.V] {
			continue
		}
		if !keptSet[e.U] && !keptSet[e.V] {
			t.Fatalf("edge %v has no endpoint in the cover", e)
		}
	}

	// SCC-preservable: kept nodes are grouped identically in G_i and G_{i+1}.
	orig := memgraph.FromEdges(edges, nodes).Tarjan()
	next := memgraph.FromEdges(nextEdges, kept).Tarjan()
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			a, b := kept[i], kept[j]
			if orig.SameSCC(a, b) != next.SameSCC(a, b) {
				t.Fatalf("SCC preservation violated for kept nodes %d and %d (optimized=%v)", a, b, optimized)
			}
		}
	}
	return res
}

// checkRemovedStep checks the removed-step file at path against the
// contraction of the graph g with the given edges and kept nodes: its
// markers are exactly V_i - V_{i+1}, in id order, and each group holds the
// marker, then the node's in-edges of E_d in source order, then its
// out-edges of E_d in target order, without self-loops, so that no edge has
// two removed endpoints.  E_d is G_i deduplicated, trimmed of the nodes
// without an in-edge or an out-edge in the optimised variant.  It returns
// the removed nodes.
func checkRemovedStep(t *testing.T, cfg iomodel.Config, path string, edges []record.Edge, g edgefile.Graph, keptSet map[record.NodeID]bool, optimized bool) []record.NodeID {
	t.Helper()
	got, err := recio.ReadAll(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := recio.ReadAll(g.NodePath, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// E_d, deduplicated and without self-loops (neither is ever written).
	ed := map[record.Edge]bool{}
	for _, e := range edges {
		if e.U != e.V {
			ed[e] = true
		}
	}
	if optimized {
		hasIn, hasOut := map[record.NodeID]bool{}, map[record.NodeID]bool{}
		for e := range ed {
			hasOut[e.U], hasIn[e.V] = true, true
		}
		for e := range ed {
			if !hasIn[e.U] || !hasOut[e.U] || !hasIn[e.V] || !hasOut[e.V] {
				delete(ed, e)
			}
		}
	}
	var want []record.Edge
	var removed []record.NodeID
	for _, v := range nodes {
		if keptSet[v] {
			continue
		}
		removed = append(removed, v)
		var ins, outs []record.Edge
		for e := range ed {
			if e.V == v {
				ins = append(ins, e)
			}
			if e.U == v {
				outs = append(outs, e)
			}
		}
		slices.SortFunc(ins, func(a, b record.Edge) int { return cmp.Compare(a.U, b.U) })
		slices.SortFunc(outs, func(a, b record.Edge) int { return cmp.Compare(a.V, b.V) })
		want = append(append(append(want, record.Edge{U: v, V: v}), ins...), outs...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("removed-step file (optimized=%v)\ngot  %v\nwant %v", optimized, got, want)
	}
	for _, e := range got {
		if e.U != e.V && !keptSet[e.U] && !keptSet[e.V] {
			t.Fatalf("edge %v of the removed-step file has two removed endpoints", e)
		}
	}
	return removed
}

func TestRemovedStepLayout(t *testing.T) {
	// Isolated nodes, a source and a sink hanging off a cycle (Type-1
	// trimmed in the optimised variant), self-loops and parallel edges:
	// every removed node gets a marker, with or without kept neighbours.
	edges := append(graphgen.Cycle(12),
		record.Edge{U: 20, V: 0}, record.Edge{U: 5, V: 21}, record.Edge{U: 21, V: 21},
		record.Edge{U: 3, V: 3}, record.Edge{U: 4, V: 5}, record.Edge{U: 22, V: 22})
	for _, optimized := range []bool{false, true} {
		contractAndCheckInvariants(t, edges, []record.NodeID{30, 31, 32}, optimized)
	}
}

func TestContractPaperExample(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	for _, optimized := range []bool{false, true} {
		contractAndCheckInvariants(t, edges, nodes, optimized)
	}
}

func TestContractCycle(t *testing.T) {
	// A directed cycle is 2-regular, so the basic ">" operator falls back to
	// the node-id tie-break and only guarantees the minimum of one removed
	// node (Lemma 5.2); the Type-2 dictionary of the optimised variant skips
	// redundant cover nodes and removes roughly every other node.
	basic := contractAndCheckInvariants(t, graphgen.Cycle(30), nil, false)
	if basic.NumRemoved < 1 {
		t.Fatalf("basic contraction removed %d nodes", basic.NumRemoved)
	}
	opt := contractAndCheckInvariants(t, graphgen.Cycle(30), nil, true)
	if opt.NumRemoved < 5 {
		t.Fatalf("only %d nodes removed from a 30-cycle with Type-2 reduction", opt.NumRemoved)
	}
}

func TestContractRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		edges := graphgen.Random(50, 150, seed)
		for _, optimized := range []bool{false, true} {
			contractAndCheckInvariants(t, edges, nil, optimized)
		}
	}
}

func TestContractDAG(t *testing.T) {
	edges := graphgen.DAGLayered(40, 100, 5)
	for _, optimized := range []bool{false, true} {
		contractAndCheckInvariants(t, edges, nil, optimized)
	}
}

func TestContractWithSelfLoopsAndParallelEdges(t *testing.T) {
	edges := []record.Edge{
		{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2},
		{U: 2, V: 3}, {U: 3, V: 2}, {U: 4, V: 4},
	}
	for _, optimized := range []bool{false, true} {
		contractAndCheckInvariants(t, edges, nil, optimized)
	}
}

func TestOptimizedRemovesAtLeastAsManyNodes(t *testing.T) {
	edges := graphgen.Random(100, 300, 9)
	cfg1 := testConfig(t)
	g1 := buildGraph(t, cfg1, edges, nil)
	basic, err := Contract(context.Background(), g1, cfg1.TempDir, Options{Optimized: false}, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(t)
	g2 := buildGraph(t, cfg2, edges, nil)
	opt, err := Contract(context.Background(), g2, cfg2.TempDir, Options{Optimized: true}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Next.NumNodes > basic.Next.NumNodes {
		t.Fatalf("optimised contraction kept more nodes (%d) than the basic one (%d)", opt.Next.NumNodes, basic.Next.NumNodes)
	}
}

func TestContractDegreeBound(t *testing.T) {
	// Theorem 5.3: removed nodes have at most sqrt(2|E|) distinct neighbours.
	edges := graphgen.Random(80, 240, 3)
	for _, optimized := range []bool{false, true} {
		res := contractAndCheckInvariants(t, edges, nil, optimized)
		bound := int64(2 * len(edges))
		if int64(res.MaxRemovedDegree)*int64(res.MaxRemovedDegree) > bound {
			t.Fatalf("max removed degree %d exceeds sqrt(%d)", res.MaxRemovedDegree, bound)
		}
	}
}

func TestContractUsesNoRandomIO(t *testing.T) {
	cfg := testConfig(t)
	g := buildGraph(t, cfg, graphgen.Random(100, 300, 11), nil)
	before := cfg.Stats.Snapshot()
	if _, err := Contract(context.Background(), g, cfg.TempDir, Options{Optimized: true}, cfg); err != nil {
		t.Fatal(err)
	}
	delta := cfg.Stats.Snapshot().Sub(before)
	if delta.RandomIOs() != 0 {
		t.Fatalf("contraction performed %d random I/Os", delta.RandomIOs())
	}
}

func TestType2DictBounded(t *testing.T) {
	d := newType2Dict(3)
	keys := []record.NodeKey{{Deg: 10}, {Deg: 5}, {Deg: 7}, {Deg: 2}, {Deg: 9}}
	for i, k := range keys {
		d.insert(record.NodeID(i), k)
	}
	if len(d.members) > 3 {
		t.Fatalf("dictionary grew to %d entries, limit 3", len(d.members))
	}
	// The smallest nodes must be retained: node 3 (deg 2) and node 1 (deg 5).
	if !d.contains(3) || !d.contains(1) {
		t.Fatalf("dictionary does not retain the smallest nodes: %+v", d.members)
	}
	if d.contains(0) {
		t.Fatal("dictionary retained the largest node")
	}
	// Duplicate insert is a no-op.
	d.insert(3, record.NodeKey{Deg: 2})
	if len(d.members) > 3 {
		t.Fatal("duplicate insert grew the dictionary")
	}
}
