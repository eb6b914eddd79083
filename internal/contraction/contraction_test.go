package contraction

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
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

// TestType2DictFitsItsShare fills a dictionary of the default size at the
// default budget M = 4 MiB: it holds at least 32,768 entries, and its live
// heap, which E_d's sort reserves, stays within the M/4 share.
func TestType2DictFitsItsShare(t *testing.T) {
	cfg := iomodel.Config{Memory: iomodel.DefaultMemory, BlockSize: iomodel.DefaultBlockSize}
	c := &contractor{opts: Options{Optimized: true}, cfg: cfg}
	size := c.type2DictSize()
	if size < 32768 {
		t.Fatalf("default dictionary holds %d entries at M = %d; want at least 32,768", size, cfg.Memory)
	}
	if reserved := type2DictBytes(size); reserved > cfg.Memory/4 {
		t.Fatalf("dictionary reserves %d bytes, more than M/4 = %d", reserved, cfg.Memory/4)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := newType2Dict(size)
	for i := 0; i < size+1000; i++ {
		d.insert(record.NodeID(i)*2654435761, record.NodeKey{Deg: uint64(i % 97), Prod: uint64(i % 13)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if len(d.members) != size {
		t.Fatalf("dictionary holds %d entries, want it full at %d", len(d.members), size)
	}
	runtime.KeepAlive(d)
	if live > cfg.Memory/4 {
		t.Fatalf("a full dictionary of %d entries holds %d live bytes, more than M/4 = %d", size, live, cfg.Memory/4)
	}
	if reserved := type2DictBytes(size); live < reserved/2 {
		t.Fatalf("a full dictionary holds %d live bytes, under half the %d it reserves; the measurement missed it", live, reserved)
	}
}

// TestType2DictMatchesReference drives the dictionary with random inserts,
// every node always with its one key as V_d gives it, and checks it against
// its definition after every insert: it retains exactly the s smallest
// distinct nodes inserted so far under ">".  The ids include 0 and
// math.MaxUint32, and small limits make the index collide and evict often.
func TestType2DictMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Intn(40)
		ids := []record.NodeID{0, math.MaxUint32, math.MaxUint32 - 1}
		for len(ids) < 2+rng.Intn(150) {
			ids = append(ids, record.NodeID(rng.Intn(1<<20)))
		}
		keys := map[record.NodeID]record.NodeKey{}
		for _, id := range ids {
			keys[id] = record.NodeKey{Deg: uint64(rng.Intn(8)), Prod: uint64(rng.Intn(4))}
		}
		d := newType2Dict(limit)
		var seen []record.NodeID
		for step := 0; step < 400; step++ {
			n := ids[rng.Intn(len(ids))]
			d.insert(n, keys[n])
			if !slices.Contains(seen, n) {
				seen = append(seen, n)
			}
			slices.SortFunc(seen, func(a, b record.NodeID) int {
				if record.Greater(b, keys[b], a, keys[a]) {
					return -1
				}
				return 1
			})
			want := seen[:min(limit, len(seen))]
			if len(d.members) != len(want) {
				t.Fatalf("seed %d step %d: %d entries, want %d", seed, step, len(d.members), len(want))
			}
			for _, id := range ids {
				if got := d.contains(id); got != slices.Contains(want, id) {
					t.Fatalf("seed %d step %d: contains(%d) = %v; the %d smallest are %v", seed, step, id, got, limit, want)
				}
			}
		}
	}
}

// recordingBackend records the path of every file created through it.
type recordingBackend struct {
	storage.Backend
	created []string
}

func (b *recordingBackend) Create(path string) (storage.File, error) {
	b.created = append(b.created, path)
	return b.Backend.Create(path)
}

// fileKind returns the prefix a path was made with by blockio.TempFile,
// which names a file prefix-<random>-<sequence>.bin.
func fileKind(path string) string {
	base := path[strings.LastIndex(path, "/")+1:]
	for i := 0; i < 2; i++ {
		base = base[:strings.LastIndex(base, "-")]
	}
	return base
}

// coverFromEd computes V_{i+1} in memory, the way Algorithm 3 defines it:
// E_d is G_i deduplicated (self-loops dropped and Type-1-trimmed in the
// optimised variant), each edge carries both endpoints' keys, and a scan of
// it in (target, source) order adds the greater endpoint of every edge but
// self-loops, unless the given Type-2 dictionary holds the smaller one.
func coverFromEd(edges []record.Edge, optimized bool, dict *type2Dict) []record.NodeID {
	var ed []record.Edge
	for _, e := range edges {
		if !(optimized && e.U == e.V) && !slices.Contains(ed, e) {
			ed = append(ed, e)
		}
	}
	deg := map[record.NodeID]*record.NodeDegree{}
	for _, e := range ed {
		for _, n := range []record.NodeID{e.U, e.V} {
			if deg[n] == nil {
				deg[n] = &record.NodeDegree{Node: n}
			}
		}
		deg[e.U].DegOut++
		deg[e.V].DegIn++
	}
	slices.SortFunc(ed, func(a, b record.Edge) int { return cmp.Compare(record.EdgeByTarget(a).Lo, record.EdgeByTarget(b).Lo) })
	var cover []record.NodeID
	for _, e := range ed {
		du, dv := deg[e.U], deg[e.V]
		if optimized && (du.DegIn == 0 || du.DegOut == 0 || dv.DegIn == 0 || dv.DegOut == 0) || e.U == e.V {
			continue
		}
		rec := record.EdgeAug{U: e.U, V: e.V, KeyU: du.Key(optimized), KeyV: dv.Key(optimized)}
		c := rec.CoverNode()
		if dict != nil {
			if dict.contains(rec.OtherNode()) {
				continue
			}
			key := rec.KeyV
			if c == e.U {
				key = rec.KeyU
			}
			dict.insert(c, key)
		}
		cover = append(cover, c)
	}
	slices.Sort(cover)
	return slices.Compact(cover)
}

// TestContractStreamsEd runs one step of each variant at M = 8B, where
// every sort spills into runs, over a backend that records the files it
// creates.  E_d is never a file (no ed) and no sort of the edges by target
// writes one (no ein); the step writes only the files the package doc
// names.  The cover equals the one computed in memory from E_d in (target,
// source) order with a dictionary of the same size, which is full and
// evicts at this budget.
func TestContractStreamsEd(t *testing.T) {
	edges := append(graphgen.Random(300, 1200, 21), record.Edge{U: 7, V: 7}, record.Edge{U: 8, V: 9})
	allowed := []string{"eout", "vout", "vd", "ein-trim", "cover-raw", "cover", "edel", "eout-del", "next-edges", "removed", "extsort-run", "extsort-merge"}
	for _, optimized := range []bool{false, true} {
		rec := &recordingBackend{Backend: storage.NewMem()}
		cfg := iomodel.Config{BlockSize: 64, Memory: 8 * 64, TempDir: "/in", Storage: rec, Stats: &iomodel.Stats{}}
		g := buildGraph(t, cfg, edges, nil)
		rec.created = nil
		opts := Options{Optimized: optimized}
		res, err := Contract(context.Background(), g, "/step", opts, cfg)
		if err != nil {
			t.Fatalf("optimized=%v: %v", optimized, err)
		}
		kinds := map[string]int{}
		for _, p := range rec.created {
			kinds[fileKind(p)]++
		}
		for kind := range kinds {
			if !slices.Contains(allowed, kind) {
				t.Errorf("optimized=%v: the step created a %q file", optimized, kind)
			}
		}
		if kinds["extsort-run"] == 0 || kinds["ein-trim"] != 1 || kinds["cover-raw"] != 1 {
			t.Fatalf("optimized=%v: created %v; the check needs spilled sorts and one cover scan", optimized, kinds)
		}

		got, err := recio.ReadAll(res.Next.NodePath, record.NodeCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var dict *type2Dict
		if optimized {
			c := &contractor{opts: opts, cfg: cfg}
			if c.type2DictSize() >= len(got) {
				t.Fatalf("dictionary of %d entries for a cover of %d; the check needs evictions", c.type2DictSize(), len(got))
			}
			dict = newType2Dict(c.type2DictSize())
		}
		if want := coverFromEd(edges, optimized, dict); !slices.Equal(got, want) {
			t.Fatalf("optimized=%v: cover\ngot  %v\nwant %v", optimized, got, want)
		}
	}
}

// faultedStep is the observable outcome of one contraction step under a
// fault plan.
type faultedStep struct {
	err   error
	res   Result
	files [3][]record.Edge // next-edges, removed-step file, and the cover as (n, n)
	io    iomodel.Snapshot // the step's I/O counters, Retries zeroed
	left  []string         // the kinds of the files on the store after the step
	stuck int              // files left because their removal failed for good
}

// removeWatch records the files whose last removal attempt failed.
type removeWatch struct {
	storage.Backend
	failed map[string]bool
}

func (b *removeWatch) Remove(path string) error {
	err := b.Backend.Remove(path)
	b.failed[path] = err != nil && !storage.IsNotExist(err)
	return err
}

// contractFaulted runs one optimised step at M = 8B on a graph staged on a
// fresh mem store, with the step's operations (and only those) wrapped in
// plan.
func contractFaulted(t *testing.T, retries int, plan *storage.FaultPlan) faultedStep {
	t.Helper()
	mem := storage.NewMem()
	cfg := iomodel.Config{BlockSize: 64, Memory: 8 * 64, TempDir: "/in", Storage: mem, Stats: &iomodel.Stats{}, Retries: retries}
	g := buildGraph(t, cfg, graphgen.Random(300, 1200, 5), nil)
	watch := &removeWatch{Backend: storage.NewFault(mem, plan), failed: map[string]bool{}}
	cfg.Storage = watch
	res, err := Contract(context.Background(), g, "/step", Options{Optimized: true}, cfg)
	out := faultedStep{err: err, res: res, io: cfg.Stats.Snapshot()}
	out.io.Retries = 0
	cfg.Storage = mem
	if err == nil {
		for i, p := range []string{res.Next.EdgePath, res.RemovedPath} {
			if out.files[i], err = recio.ReadAll(p, record.EdgeCodec{}, cfg); err != nil {
				t.Fatal(err)
			}
		}
		cover, err := recio.ReadAll(res.Next.NodePath, record.NodeCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range cover {
			out.files[2] = append(out.files[2], record.Edge{U: n, V: n})
		}
		out.res.Next.EdgePath, out.res.Next.NodePath, out.res.RemovedPath = "", "", ""
	}
	for _, p := range mem.Paths() {
		if watch.failed[p] {
			out.stuck++
			continue
		}
		out.left = append(out.left, fileKind(p))
	}
	slices.Sort(out.left)
	return out
}

// TestContractFaultSweep injects one fault at sampled positions among the
// operations of one contraction step, where the E_d stream stays open
// across the whole cover scan.  Every step either fails with a typed error
// (ErrInjected or ErrCorrupt) or succeeds exactly like the fault-free step:
// the same Result, files and I/O counters.  Afterwards the store holds the
// input graph's files, and on success the result's three files.  The only
// other file a step may leave is one whose removal failed for good (a
// permanent fault, or a transient one without retries); a run's directory
// removal reclaims it.
func TestContractFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is a multi-run workload; skipped with -short")
	}
	// A rule that never fires counts the step's operations.
	budget := &storage.FaultRule{N: math.MaxInt64}
	base := contractFaulted(t, 0, storage.NewFaultPlan(budget))
	if base.err != nil {
		t.Fatalf("fault-free step failed: %v", base.err)
	}
	if base.io.MergePasses == 0 {
		t.Fatal("the fault-free step merged no runs; the sweep needs streamed merges")
	}
	inputs := []string{"graph-edges", "graph-nodes"}
	outputs := []string{"cover", "graph-edges", "graph-nodes", "next-edges", "removed"}
	if !slices.Equal(base.left, outputs) || base.stuck != 0 {
		t.Fatalf("the fault-free step left %v and %d stuck files; want %v", base.left, base.stuck, outputs)
	}
	ops := budget.Matches()
	flavors := []struct {
		mode    string
		retries int
	}{
		{storage.ModeTransient, 2},
		{storage.ModeTransient, 0},
		{storage.ModePermanent, 2},
		{storage.ModeTorn, 2},
	}
	recovered, failed := 0, 0
	check := func(tag string, retries int, rule *storage.FaultRule) {
		got := contractFaulted(t, retries, storage.NewFaultPlan(rule))
		if rule.Matches() < rule.N {
			t.Fatalf("%s: the fault never fired (%d matching ops)", tag, rule.Matches())
		}
		want := inputs
		if got.err == nil {
			recovered++
			want = outputs
			if got.res != base.res || got.io != base.io || !reflect.DeepEqual(got.files, base.files) {
				t.Errorf("%s: succeeded with %+v and I/O %+v, want %+v and %+v (files equal: %v)", tag, got.res, got.io, base.res, base.io, reflect.DeepEqual(got.files, base.files))
			}
		} else {
			failed++
			if !errors.Is(got.err, storage.ErrInjected) && !errors.Is(got.err, blockio.ErrCorrupt) {
				t.Errorf("%s: failed with an untyped error: %v", tag, got.err)
			}
		}
		if !slices.Equal(got.left, want) {
			t.Errorf("%s: the store holds %v after the step (err %v), want %v", tag, got.left, got.err, want)
		}
		if got.stuck > 0 && retries > 0 && rule.Mode != storage.ModePermanent {
			t.Errorf("%s: %d files left whose removal a retry should have finished", tag, got.stuck)
		}
	}
	const samples = 24
	for i := 0; i < samples; i++ {
		n := 1 + int64(i)*(ops-1)/(samples-1)
		fl := flavors[i%len(flavors)]
		check(fmt.Sprintf("%s/retries=%d@op%d", fl.mode, fl.retries, n), fl.retries,
			&storage.FaultRule{N: n, Count: 1, Mode: fl.mode, Seed: uint64(n)})
	}
	// Faults inside the cover scan, on the second block write of each of
	// its two outputs, while the E_d stream is open.
	for _, path := range []string{"ein-trim", "cover-raw"} {
		for _, fl := range flavors {
			check(fmt.Sprintf("%s/retries=%d@%s", fl.mode, fl.retries, path), fl.retries,
				&storage.FaultRule{Op: storage.OpWrite, Path: path, N: 2, Count: 1, Mode: fl.mode})
		}
	}
	t.Logf("%d step ops, %d sampled and %d cover-scan faults: %d recovered, %d failed clean", ops, samples, 2*len(flavors), recovered, failed)
}
