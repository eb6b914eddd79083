package edgefile

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

func testConfig(t *testing.T) iomodel.Config {
	t.Helper()
	return iomodel.Config{BlockSize: 256, Memory: 64 * 1024, TempDir: t.TempDir(), Stats: &iomodel.Stats{}}
}

func writeEdges(t *testing.T, cfg iomodel.Config, edges []record.Edge) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.bin")
	if err := recio.WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeNodes(t *testing.T, cfg iomodel.Config, nodes []record.NodeID) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "nodes.bin")
	if err := recio.WriteSlice(path, record.NodeCodec{}, cfg, nodes); err != nil {
		t.Fatal(err)
	}
	return path
}

// edgeIter opens the edge file at path for one pass.
func edgeIter(t *testing.T, cfg iomodel.Config, path string) recio.Iterator[record.Edge] {
	t.Helper()
	r, err := recio.NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r.Iter()
}

// edgeSink collects the edges an operator writes.
type edgeSink []record.Edge

func (s *edgeSink) Write(e record.Edge) error {
	*s = append(*s, e)
	return nil
}

func TestWriteGraphDerivesNodes(t *testing.T) {
	cfg := testConfig(t)
	g, err := WriteGraph(cfg.TempDir, []record.Edge{{U: 5, V: 2}, {U: 2, V: 5}, {U: 9, V: 5}}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 3 || g.NumEdges != 3 {
		t.Fatalf("graph = %s", g)
	}
	nodes, err := recio.ReadAll(g.NodePath, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []record.NodeID{2, 5, 9}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
	if err := g.Remove(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGraphFromEdgeFile(t *testing.T) {
	cfg := testConfig(t)
	path := writeEdges(t, cfg, []record.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 2}})
	g, err := GraphFromEdgeFile(path, cfg.TempDir, []record.NodeID{7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges)
	}
	if g.NumNodes != 4 { // 1,2,3 plus isolated 7
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes)
	}
}

func TestSortAndDedupeEdges(t *testing.T) {
	cfg := testConfig(t)
	in := writeEdges(t, cfg, []record.Edge{{U: 3, V: 1}, {U: 1, V: 2}, {U: 3, V: 1}, {U: 2, V: 2}, {U: 1, V: 2}})
	sorted := filepath.Join(t.TempDir(), "sorted.bin")
	if err := SortEdges(in, sorted, record.EdgeBySource, cfg); err != nil {
		t.Fatal(err)
	}
	// Keep self-loops.
	out := filepath.Join(t.TempDir(), "dedup.bin")
	n, err := DedupeEdges(edgeIter(t, cfg, sorted), out, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deduped to %d edges, want 3", n)
	}
	// Drop self-loops as well.
	out2 := filepath.Join(t.TempDir(), "dedup2.bin")
	n2, err := DedupeEdges(edgeIter(t, cfg, sorted), out2, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 2 {
		t.Fatalf("deduped to %d edges, want 2", n2)
	}
}

func TestDedupeNodes(t *testing.T) {
	cfg := testConfig(t)
	in := recio.NewSliceIterator([]record.NodeID{1, 1, 2, 2, 2, 5})
	out := filepath.Join(t.TempDir(), "out.bin")
	n, err := DedupeNodes(in, out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("got %d nodes, want 3", n)
	}
}

func TestReverseEdges(t *testing.T) {
	cfg := testConfig(t)
	in := writeEdges(t, cfg, []record.Edge{{U: 1, V: 2}, {U: 3, V: 4}})
	var got edgeSink
	if err := ReverseEdges(in, &got, cfg); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (record.Edge{U: 2, V: 1}) || got[1] != (record.Edge{U: 4, V: 3}) {
		t.Fatalf("reversed = %v", got)
	}
}

// degreeTable runs the degree pipeline on edges: sorted by source and
// deduplicated into E_out, one OutDegrees scan writes vout and collects the
// targets, which are sorted and merged with vout by ComputeDegrees.  It
// returns the rows and their count.
func degreeTable(t *testing.T, cfg iomodel.Config, edges []record.Edge, requireBoth bool) ([]record.NodeDegree, int64) {
	t.Helper()
	eout := slices.Clone(edges)
	slices.SortFunc(eout, func(a, b record.Edge) int { return cmp.Compare(record.EdgeBySource(a).Lo, record.EdgeBySource(b).Lo) })
	eout = slices.Compact(eout)
	vout := filepath.Join(t.TempDir(), "vout.bin")
	var targets nodeSink
	_, err := recio.WriteFile(vout, record.NodeDegreeCodec{}, cfg, func(w recio.Sink[record.NodeDegree]) error {
		return OutDegrees(recio.NewSliceIterator(eout), w, &targets, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(targets)
	r, err := recio.NewReader(vout, record.NodeDegreeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	vd := filepath.Join(t.TempDir(), "vd.bin")
	n, err := ComputeDegrees(r.Iter(), recio.NewSliceIterator([]record.NodeID(targets)), vd, requireBoth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := recio.ReadAll(vd, record.NodeDegreeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rows, n
}

// nodeSink collects the node ids an operator writes.
type nodeSink []record.NodeID

func (s *nodeSink) Write(n record.NodeID) error {
	*s = append(*s, n)
	return nil
}

func TestComputeDegrees(t *testing.T) {
	cfg := testConfig(t)
	// Graph: 1->2, 1->3, 2->3, 3->1, 4->4 (self-loop), 5->1 and node 6 has
	// only an incoming edge 3->6.
	edges := []record.Edge{{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, {U: 3, V: 1}, {U: 4, V: 4}, {U: 5, V: 1}, {U: 3, V: 6}}
	rows, n := degreeTable(t, cfg, edges, false)
	if n != 6 {
		t.Fatalf("degree rows = %d, want 6", n)
	}
	byNode := map[record.NodeID]record.NodeDegree{}
	for _, r := range rows {
		byNode[r.Node] = r
	}
	checks := map[record.NodeID][2]uint32{
		1: {2, 2}, // in from 3,5; out to 2,3
		2: {1, 1},
		3: {2, 2},
		4: {1, 1}, // self loop counts on both sides
		5: {0, 1},
		6: {1, 0},
	}
	for node, want := range checks {
		got := byNode[node]
		if got.DegIn != want[0] || got.DegOut != want[1] {
			t.Fatalf("node %d degrees = (%d,%d), want (%d,%d)", node, got.DegIn, got.DegOut, want[0], want[1])
		}
	}
	// Rows must be sorted by node.
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node }) {
		t.Fatal("degree table not sorted")
	}

	// Type-1 filter drops nodes 5 and 6.
	if _, n2 := degreeTable(t, cfg, edges, true); n2 != 4 {
		t.Fatalf("filtered degree rows = %d, want 4", n2)
	}
}

// TestComputeDegreesMatchesMemory checks the degree table built from vout
// and the sorted targets against degrees counted in memory, with and
// without the Type-1 filter, on random multigraphs: E_out holds one copy of
// each parallel edge, so it counts once, and the graphs have source-only
// nodes (ids 100-119, out edges only), sink-only nodes (120-139, in edges
// only) and self-loops.
func TestComputeDegreesMatchesMemory(t *testing.T) {
	cfg := testConfig(t)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var edges []record.Edge
		for i := 0; i < 300; i++ {
			u, v := record.NodeID(rng.Intn(100)), record.NodeID(rng.Intn(100))
			switch rng.Intn(6) {
			case 0:
				u = 100 + record.NodeID(rng.Intn(20))
			case 1:
				v = 120 + record.NodeID(rng.Intn(20))
			}
			edges = append(edges, record.Edge{U: u, V: v})
			if rng.Intn(8) == 0 {
				edges = append(edges, record.Edge{U: u, V: v}) // a parallel copy
			}
		}
		in, out := map[record.NodeID]uint32{}, map[record.NodeID]uint32{}
		seen := map[record.Edge]bool{}
		for _, e := range edges {
			if !seen[e] {
				seen[e] = true
				out[e.U]++
				in[e.V]++
			}
		}
		for _, requireBoth := range []bool{false, true} {
			var want []record.NodeDegree
			for n := record.NodeID(0); n < 140; n++ {
				d := record.NodeDegree{Node: n, DegIn: in[n], DegOut: out[n]}
				if d.DegIn+d.DegOut == 0 || requireBoth && (d.DegIn == 0 || d.DegOut == 0) {
					continue
				}
				want = append(want, d)
			}
			got, n := degreeTable(t, cfg, edges, requireBoth)
			if !slices.Equal(got, want) || n != int64(len(want)) {
				t.Fatalf("seed %d, requireBoth=%v: %d rows\ngot  %v\nwant %v", seed, requireBoth, n, got, want)
			}
		}
	}
}

// TestOutDegreesChecksDeclaredLayout feeds OutDegrees edge streams that
// break E_out's layout: each fails with ErrUnsorted, which is an
// ErrCorrupt, instead of counting a wrong degree.  Self-loops fail only
// where the caller declares E_out free of them.
func TestOutDegreesChecksDeclaredLayout(t *testing.T) {
	for _, tc := range []struct {
		name        string
		edges       []record.Edge
		noSelfLoops bool
		bad         bool
	}{
		{"sorted", []record.Edge{{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 2}, {U: 4, V: 1}}, false, false},
		{"source out of order", []record.Edge{{U: 1, V: 2}, {U: 3, V: 1}, {U: 2, V: 5}}, false, true},
		{"target out of order", []record.Edge{{U: 1, V: 2}, {U: 3, V: 4}, {U: 3, V: 1}}, false, true},
		{"repeated edge", []record.Edge{{U: 1, V: 2}, {U: 3, V: 1}, {U: 3, V: 1}}, false, true},
		{"self-loop allowed", []record.Edge{{U: 1, V: 1}, {U: 1, V: 2}}, false, false},
		{"self-loop declared absent", []record.Edge{{U: 1, V: 2}, {U: 2, V: 2}}, true, true},
	} {
		var vout []record.NodeDegree
		var targets nodeSink
		err := OutDegrees(recio.NewSliceIterator(tc.edges), (*degreeSink)(&vout), &targets, tc.noSelfLoops)
		if !tc.bad {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrUnsorted) || !errors.Is(err, blockio.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrUnsorted wrapping ErrCorrupt", tc.name, err)
		}
	}
}

// degreeSink collects the degree rows an operator writes.
type degreeSink []record.NodeDegree

func (s *degreeSink) Write(d record.NodeDegree) error {
	*s = append(*s, d)
	return nil
}

// TestMergeEdges merges random by-source streams, with edges in common,
// against a sort of their concatenation.
func TestMergeEdges(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a, b []record.Edge
		for i := 0; i < rng.Intn(50); i++ {
			e := record.Edge{U: record.NodeID(rng.Intn(10)), V: record.NodeID(rng.Intn(10))}
			a = append(a, e)
			if rng.Intn(3) == 0 {
				b = append(b, e)
			}
		}
		for i := 0; i < rng.Intn(50); i++ {
			b = append(b, record.Edge{U: record.NodeID(rng.Intn(10)), V: record.NodeID(rng.Intn(10))})
		}
		bySource := func(x, y record.Edge) int { return cmp.Compare(record.EdgeBySource(x).Lo, record.EdgeBySource(y).Lo) }
		slices.SortFunc(a, bySource)
		slices.SortFunc(b, bySource)
		want := slices.SortedFunc(slices.Values(append(slices.Clone(a), b...)), bySource)
		var got edgeSink
		it := MergeEdges(recio.NewSliceIterator(a), recio.NewSliceIterator(b))
		for {
			e, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, e)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: merged %v, want %v", seed, got, want)
		}
	}
}

func TestSplitByMembership(t *testing.T) {
	cfg := testConfig(t)
	edges := []record.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2}}
	nodes := writeNodes(t, cfg, []record.NodeID{2, 4})
	in := writeEdges(t, cfg, edges)
	for _, tc := range []struct {
		byTarget        bool
		members, others []record.Edge
	}{
		// Edges into 2 (two of them) and into 4; only 2->3 has a target
		// outside {2, 4}.
		{true, []record.Edge{{U: 1, V: 2}, {U: 4, V: 2}, {U: 3, V: 4}}, []record.Edge{{U: 2, V: 3}}},
		// Sources 2 and 4.
		{false, []record.Edge{{U: 2, V: 3}, {U: 4, V: 2}}, []record.Edge{{U: 1, V: 2}, {U: 3, V: 4}}},
	} {
		key := record.EdgeBySource
		if tc.byTarget {
			key = record.EdgeByTarget
		}
		sorted := filepath.Join(t.TempDir(), "sorted.bin")
		if err := SortEdges(in, sorted, key, cfg); err != nil {
			t.Fatal(err)
		}
		var members, others edgeSink
		if err := SplitByMembership(edgeIter(t, cfg, sorted), nodes, &members, &others, tc.byTarget, cfg); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(members, tc.members) || !slices.Equal(others, tc.others) {
			t.Fatalf("byTarget=%v: members %v, others %v; want %v and %v", tc.byTarget, members, others, tc.members, tc.others)
		}
	}
}

func TestSplitByMembershipPartition(t *testing.T) {
	// The two sinks partition the input: each keeps the input order, and an
	// edge lands on the members side exactly when its key is a member.
	cfg := testConfig(t)
	f := func(raw []uint16, members []uint16, byTarget bool) bool {
		edges := make([]record.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, record.Edge{U: uint32(raw[i] % 32), V: uint32(raw[i+1] % 32)})
		}
		key := record.EdgeBySource
		if byTarget {
			key = record.EdgeByTarget
		}
		sort.Slice(edges, func(i, j int) bool { return key(edges[i]).Less(key(edges[j])) })
		nodeSet := map[record.NodeID]bool{}
		for _, m := range members {
			nodeSet[record.NodeID(m%32)] = true
		}
		var nodes []record.NodeID
		for n := range nodeSet {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)

		np := writeNodes(t, cfg, nodes)
		var a, b edgeSink
		if err := SplitByMembership(recio.NewSliceIterator(edges), np, &a, &b, byTarget, cfg); err != nil {
			return false
		}
		var wantA, wantB edgeSink
		for _, e := range edges {
			k := e.U
			if byTarget {
				k = e.V
			}
			if nodeSet[k] {
				wantA = append(wantA, e)
			} else {
				wantB = append(wantB, e)
			}
		}
		return slices.Equal(a, wantA) && slices.Equal(b, wantB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatEdges(t *testing.T) {
	cfg := testConfig(t)
	a := writeEdges(t, cfg, []record.Edge{{U: 1, V: 2}})
	b := writeEdges(t, cfg, []record.Edge{{U: 3, V: 4}, {U: 5, V: 6}})
	out := filepath.Join(t.TempDir(), "cat.bin")
	n, err := ConcatEdges(out, cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("concatenated %d edges, want 3", n)
	}
}

func TestMergeLabels(t *testing.T) {
	cfg := testConfig(t)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.bin")
	b := filepath.Join(dir, "b.bin")
	if err := recio.WriteSlice(a, record.LabelCodec{}, cfg, []record.Label{{Node: 1, SCC: 1}, {Node: 4, SCC: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := recio.WriteSlice(b, record.LabelCodec{}, cfg, []record.Label{{Node: 2, SCC: 2}, {Node: 3, SCC: 2}, {Node: 5, SCC: 5}}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "merged.bin")
	n, err := MergeLabels(a, b, out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("merged %d labels, want 5", n)
	}
	got, err := recio.ReadAll(out, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Node < got[i-1].Node {
			t.Fatalf("merged labels not sorted: %v", got)
		}
	}
}

// TestSplitByNodeRange checks the shard split for every node count up to 40
// and every shard count it allows (up to 8): k non-empty node ranges in
// order whose sizes differ by at most one, every node in exactly one range,
// and every edge in exactly one file, its shard's when both endpoints fall
// in one range and the cross file otherwise.
func TestSplitByNodeRange(t *testing.T) {
	cfg := testConfig(t)
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		nodes := make([]record.NodeID, n)
		for i := range nodes {
			nodes[i] = record.NodeID(3*i + 1) // gaps exercise the edge router
		}
		edges := make([]record.Edge, 3*n)
		for i := range edges {
			edges[i] = record.Edge{U: nodes[rng.Intn(n)], V: nodes[rng.Intn(n)]}
		}
		g := Graph{EdgePath: writeEdges(t, cfg, edges), NodePath: writeNodes(t, cfg, nodes), NumNodes: int64(n), NumEdges: int64(len(edges))}
		for k := 1; k <= min(n, 8); k++ {
			split, err := SplitByNodeRange(context.Background(), g, t.TempDir(), k, cfg)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if len(split.Shards) != k {
				t.Fatalf("n=%d k=%d: %d shards", n, k, len(split.Shards))
			}
			shardOf := map[record.NodeID]int{}
			var all []record.NodeID
			for i, sg := range split.Shards {
				got, err := recio.ReadAll(sg.NodePath, record.NodeCodec{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || int64(len(got)) != sg.NumNodes {
					t.Fatalf("n=%d k=%d: shard %d holds %d nodes, says %d", n, k, i, len(got), sg.NumNodes)
				}
				if size := len(got); size != n/k && size != n/k+1 {
					t.Fatalf("n=%d k=%d: shard %d holds %d nodes, want %d or %d", n, k, i, size, n/k, n/k+1)
				}
				for _, v := range got {
					shardOf[v] = i
				}
				all = append(all, got...)
			}
			if !slices.Equal(all, nodes) {
				t.Fatalf("n=%d k=%d: the shards hold %v, want every node once and in order: %v", n, k, all, nodes)
			}

			var routed []record.Edge
			for i, sg := range split.Shards {
				got, err := recio.ReadAll(sg.EdgePath, record.EdgeCodec{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range got {
					if shardOf[e.U] != i || shardOf[e.V] != i {
						t.Fatalf("n=%d k=%d: edge %v in shard %d", n, k, e, i)
					}
				}
				routed = append(routed, got...)
			}
			cross, err := recio.ReadAll(split.CrossPath, record.EdgeCodec{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range cross {
				if shardOf[e.U] == shardOf[e.V] {
					t.Fatalf("n=%d k=%d: internal edge %v in the cross file", n, k, e)
				}
			}
			if int64(len(cross)) != split.NumCross {
				t.Fatalf("n=%d k=%d: %d cross edges, says %d", n, k, len(cross), split.NumCross)
			}
			routed = append(routed, cross...)
			byEdge := func(a, b record.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) }
			want := slices.Clone(edges)
			slices.SortFunc(want, byEdge)
			slices.SortFunc(routed, byEdge)
			if !slices.Equal(routed, want) {
				t.Fatalf("n=%d k=%d: the split holds %d edges, not the input's %d", n, k, len(routed), len(edges))
			}
			if err := split.Remove(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
}
