// Package semiscc implements the semi-external SCC solver used as the base
// case of Ext-SCC (Algorithm 2, line 5): per-node state lives in main memory
// while the edges are streamed from disk with sequential scans only.
//
// The paper plugs in 1PB-SCC (Zhang, Yu, Qin, Chang & Lin, "I/O efficient:
// computing SCCs in massive graphs", SIGMOD 2013).  This package is a
// batched spanning-tree solver in its style, built from that paper's
// description:
//
//   - Node ids become dense indices into the sorted node file, through an
//     in-memory id → index lookup; no relabelled edge file is written.
//   - Memory holds a union-find over contracted nodes, whose root is each
//     set's smallest index, and a spanning forest over the sets: a parent
//     and a depth per set.  Every forest edge stands for a real edge of the
//     graph between the two sets.
//   - Each scan streams the edges between different sets into a batch.  An
//     edge u→v is dirty when depth(v) ≤ depth(u).  A batch that holds a dirty
//     edge is solved in memory: Tarjan over the forest's edges plus the batch
//     merges every SCC it finds into one set, and each set then takes its
//     longest-path depth in the resulting DAG, with a predecessor that
//     attains it as its new parent.  Every edge in memory then points
//     strictly deeper.  A batch with no dirty edge is dropped unsolved.
//   - The solve stops after a scan with no dirty edge, or after a scan whose
//     edges all fit one batch.  A graph whose edges fit M/2 therefore takes
//     one scan and one in-memory Tarjan, as the paper observes no external
//     work is needed once M is large enough.
//
// Why it is correct.  Sets merge only along cycles of real edges, so every
// set lies inside one SCC.  After a scan with no dirty edge the depths did
// not change during the scan, and every edge between different sets points
// strictly deeper, so the quotient graph over the sets is acyclic and no two
// sets share an SCC.  After a scan whose edges all fit one batch, Tarjan saw
// every edge between different sets at once, so it found the SCCs of the
// quotient itself.  Either way the sets are exactly the SCCs.
//
// Why it stops.  Each dirty batch either merges sets or, merging none, raises
// some depth without lowering any: the old forest paths are edges of the
// solved graph, so no longest path gets shorter, and the dirty edge's target
// ends up deeper than its source.  The number of sets only falls and depths
// stay below it, so only finitely many dirty batches can follow each other,
// and a scan without one ends the solve.
//
// Memory rule.  The batch holds at most M/2 bytes of edges, 8 bytes per edge
// of dense indices, and no more edges than it takes to split the edge file
// into the fewest batches of that size.  It is allocated once and sorted in
// place.  The per-node state is about 40 bytes per node: the sorted ids and
// their lookup table, the union-find, the forest's parent and depth, and the
// working space of a batch solve (the batch's offsets by target, Tarjan's
// index, stack and DFS path; Tarjan's low-link shares the depth array).
// Nothing is allocated per batch, labels are written as a stream, and the
// SCC count is the number of union-find roots.
//
// Labels name each SCC by its smallest member id.
package semiscc

import (
	"fmt"
	"io"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// pairBytes is the memory one batch edge takes: two dense int32 indices.
const pairBytes = 8

// Options controls the solver.
type Options struct {
	// ForceStreaming never solves the graph in one batch, even when its
	// edges would fit in memory: a batch holds at most half the edges, and
	// the solve ends only on a scan with no dirty edge.  Used by tests and
	// ablation benchmarks to exercise the multi-scan path.
	ForceStreaming bool
}

// Result describes one solver run.
type Result struct {
	// LabelPath is the path of the produced label file, sorted by node id,
	// with one record per node of the input graph.  Every SCC identifier is
	// the smallest node id among its members.
	LabelPath string
	// NumLabels is the number of label records actually written to
	// LabelPath; callers use it to validate label-file completeness without
	// a counting scan.
	NumLabels int64
	// NumSCCs is the number of strongly connected components found.
	NumSCCs int64
	// EdgeScans is the number of sequential passes over the edge file.
	EdgeScans int
	// UsedInMemory reports whether the whole graph was solved in one batch,
	// in one scan.
	UsedInMemory bool
}

// Compute finds all SCCs of g, writing the label file into dir.
func Compute(g edgefile.Graph, dir string, opts Options, cfg iomodel.Config) (Result, error) {
	cfg.Stats.CountSemiExternalRun()

	nodes, err := readNodes(g, cfg)
	if err != nil {
		return Result{}, err
	}
	if int64(len(nodes)) != g.NumNodes {
		return Result{}, fmt.Errorf("semiscc: node file has %d nodes, graph metadata says %d", len(nodes), g.NumNodes)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			return Result{}, fmt.Errorf("semiscc: node file is not strictly sorted at record %d", i)
		}
	}

	// The batch holds at most M/2 bytes, and only as many edges as it takes
	// to split the edge file into the fewest batches of that size.
	batch := max(cfg.Memory/2/pairBytes, 1)
	if opts.ForceStreaming {
		batch = min(batch, max((g.NumEdges+1)/2, 1))
	}
	if g.NumEdges > 0 {
		k := (g.NumEdges + batch - 1) / batch
		batch = (g.NumEdges + k - 1) / k
	}
	s := newSolver(nodes, int(batch))
	res := Result{}
	for {
		res.EdgeScans++
		dirty, batches, err := s.scan(g.EdgePath, cfg)
		if err != nil {
			return Result{}, err
		}
		if batches == 1 && !opts.ForceStreaming {
			res.UsedInMemory = res.EdgeScans == 1
			break
		}
		if !dirty {
			break
		}
	}
	if res.UsedInMemory {
		cfg.Stats.CountInMemorySolve()
	}

	res.LabelPath = blockio.TempFile(dir, "semiscc-labels", cfg.Stats)
	res.NumLabels, res.NumSCCs, err = s.writeLabels(res.LabelPath, cfg)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// readNodes reads the node file into a slice sized by the graph's metadata,
// so that reading it leaves no garbage behind.
func readNodes(g edgefile.Graph, cfg iomodel.Config) ([]record.NodeID, error) {
	r, err := recio.NewReader(g.NodePath, record.NodeCodec{}, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	nodes := make([]record.NodeID, 0, max(g.NumNodes, 0))
	for {
		id, err := r.Read()
		if err == io.EOF {
			return nodes, nil
		}
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, id)
	}
}

// pair is one batch edge between two sets, by their roots.
type pair struct{ u, v int32 }

// frame is one node of the DFS path and the position of its next out-edge.
type frame struct{ node, next int32 }

// solver holds the per-node state and the batch; every slice is allocated
// once, by newSolver.
type solver struct {
	ids idIndex
	// uf is the union-find: uf[x] == x for a root, and a set's root is its
	// smallest index.
	uf []int32
	// parent and depth describe the spanning forest over the sets, indexed
	// by root; a forest root has parent -1 and depth 0.
	parent []int32
	depth  []int32
	// off, index, stack and path are the working space of a batch solve:
	// the batch's offsets by target, Tarjan's index, stack and DFS path.
	off   []int32
	index []int32
	stack []int32
	path  []frame
	batch []pair
}

func newSolver(nodes []record.NodeID, batch int) *solver {
	n := len(nodes)
	s := &solver{
		ids:    newIDIndex(nodes),
		uf:     make([]int32, n),
		parent: make([]int32, n),
		depth:  make([]int32, n),
		off:    make([]int32, n+1),
		index:  make([]int32, n),
		stack:  make([]int32, n),
		path:   make([]frame, 0, n),
		batch:  make([]pair, 0, batch),
	}
	for i := range s.uf {
		s.uf[i] = int32(i)
		s.parent[i] = -1
	}
	return s
}

// find returns the root of x's set, halving the path on the way.
func (s *solver) find(x int32) int32 {
	uf := s.uf
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// scan streams the edge file once, batching the edges between different sets
// and solving every batch that holds a dirty edge.  It reports whether any
// batch was dirty and how many batches the scan filled.
func (s *solver) scan(path string, cfg iomodel.Config) (dirty bool, batches int, err error) {
	r, err := recio.NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		return false, 0, err
	}
	defer r.Close()
	batchDirty := false
	flush := func() {
		batches++
		if batchDirty {
			s.solve()
			dirty = true
		}
		s.batch = s.batch[:0]
		batchDirty = false
	}
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return false, 0, err
		}
		u, ok := s.ids.lookup(e.U)
		if !ok {
			continue
		}
		v, ok := s.ids.lookup(e.V)
		if !ok {
			continue
		}
		a, b := s.find(u), s.find(v)
		if a == b {
			continue
		}
		if len(s.batch) == cap(s.batch) {
			// The solve may merge sets, so take the roots again.
			flush()
			if a, b = s.find(u), s.find(v); a == b {
				continue
			}
		}
		if s.depth[b] <= s.depth[a] {
			batchDirty = true
		}
		s.batch = append(s.batch, pair{a, b})
	}
	flush()
	return dirty, batches, nil
}

// solve runs Tarjan over the forest's edges plus the batch, merges every SCC
// it finds, and rebuilds the forest from longest-path depths in the DAG that
// remains.  It walks the graph reversed, where a set's out-edges lead to its
// predecessors: the forest edge is then the set's own parent pointer, and a
// component pops only after every component that reaches it, so its depth
// and parent are final the moment it pops.
func (s *solver) solve() {
	n := int32(len(s.uf))
	uf, parent, depth, index, off, batch := s.uf, s.parent, s.depth, s.index, s.off, s.batch

	// Sort the batch by target in place, so that batch[off[x]:off[x+1]]
	// holds the edges into x: count into off, turn the counts into start
	// offsets, then swap every edge into its target's range, with index
	// holding each range's fill cursor.
	clear(off)
	for _, e := range batch {
		off[e.v+1]++
	}
	for x := range n {
		off[x+1] += off[x]
	}
	copy(index, off[:n])
	for x := range n {
		for i := index[x]; i < off[x+1]; i = index[x] {
			if v := batch[i].v; v == x {
				index[x]++
			} else {
				batch[i], batch[index[v]] = batch[index[v]], batch[i]
				index[v]++
			}
		}
	}

	// Tarjan over the roots, with depth as the low-link: a node needs its
	// low-link only while it is on the stack, and its set's depth only once
	// its component has popped.  A popped node gets index done, which no
	// low-link comparison picks.
	const unvisited, done = -1, int32(^uint32(0) >> 1)
	low, stack := depth, s.stack
	for x := range n {
		index[x] = unvisited
	}
	// x's out-edges are at positions first(x) to off[x+1]: the forest edge
	// at off[x]-1 when x has a parent, then the batch edges into x.
	first := func(x int32) int32 {
		if parent[x] >= 0 {
			return off[x] - 1
		}
		return off[x]
	}
	edge := func(x, i int32) int32 {
		if i < off[x] {
			return parent[x]
		}
		return batch[i].u
	}
	counter, top := int32(0), int32(0)
	push := func(x int32) {
		index[x], low[x] = counter, counter
		counter++
		stack[top] = x
		top++
		s.path = append(s.path, frame{x, first(x)})
	}
	for start := range n {
		if uf[start] != start || index[start] != unvisited {
			continue
		}
		push(start)
		for len(s.path) > 0 {
			f := &s.path[len(s.path)-1]
			v := f.node
			if f.next < off[v+1] {
				w := edge(v, f.next)
				f.next++
				if index[w] == unvisited {
					push(w)
				} else if index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			s.path = s.path[:len(s.path)-1]
			if len(s.path) > 0 {
				if p := s.path[len(s.path)-1].node; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots a component: the stack from v up.  Merge it under its
			// smallest member, then take the deepest predecessor outside it,
			// which has popped already, as its parent.
			k := top - 1
			for stack[k] != v {
				k--
			}
			members := stack[k:top]
			root := v
			for _, x := range members {
				root = min(root, x)
			}
			for _, x := range members {
				index[x] = done
				uf[x] = root
			}
			d, p := int32(0), int32(-1)
			for _, x := range members {
				for i := first(x); i < off[x+1]; i++ {
					if c := uf[edge(x, i)]; c != root && depth[c] >= d {
						d, p = depth[c]+1, c
					}
				}
			}
			depth[root], parent[root] = d, p
			top = k
		}
	}
}

// writeLabels streams one label per node, in node order, naming each SCC by
// its smallest member, and counts the SCCs as the union-find's roots.
func (s *solver) writeLabels(path string, cfg iomodel.Config) (written, sccs int64, err error) {
	w, err := recio.NewWriter(path, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, 0, err
	}
	for i, id := range s.ids.ids {
		root := s.find(int32(i))
		if root == int32(i) {
			sccs++
		}
		if err := w.Write(record.Label{Node: id, SCC: s.ids.ids[root]}); err != nil {
			w.Close()
			return w.Count(), 0, err
		}
	}
	if err := w.Close(); err != nil {
		return w.Count(), 0, err
	}
	return w.Count(), sccs, nil
}

// idIndex maps node ids to their indices in the sorted node file.  Ids are
// bucketed by their offset from the smallest id, shifted so that there are
// at most as many buckets as nodes; a lookup binary-searches one bucket,
// which holds about one id when the ids are spread evenly.
type idIndex struct {
	ids   []record.NodeID
	shift uint
	// first[b] is the index of the first id in bucket b or a later one.
	first []int32
}

func newIDIndex(ids []record.NodeID) idIndex {
	x := idIndex{ids: ids}
	if len(ids) == 0 {
		return x
	}
	span := uint64(ids[len(ids)-1] - ids[0])
	for span>>x.shift >= uint64(len(ids)) {
		x.shift++
	}
	buckets := int(span>>x.shift) + 1
	x.first = make([]int32, buckets+1)
	b := 0
	for i, id := range ids {
		for ; b <= int(uint64(id-ids[0])>>x.shift); b++ {
			x.first[b] = int32(i)
		}
	}
	for ; b <= buckets; b++ {
		x.first[b] = int32(len(ids))
	}
	return x
}

// lookup returns the index of id, or false when id is not a node.
func (x *idIndex) lookup(id record.NodeID) (int32, bool) {
	if len(x.ids) == 0 || id < x.ids[0] {
		return 0, false
	}
	b := uint64(id-x.ids[0]) >> x.shift
	if b >= uint64(len(x.first)-1) {
		return 0, false
	}
	lo, hi := x.first[b], x.first[b+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if x.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < x.first[b+1] && x.ids[lo] == id {
		return lo, true
	}
	return 0, false
}

// CountSCCsInFile returns the number of SCCs in the label file at path.
// Every SCC id of an Ext-SCC labelling is the id of one of the component's
// members (core.Result), so the count is the number of nodes labelled with
// their own id: one streaming scan in constant memory, however many
// components there are.
func CountSCCsInFile(path string, cfg iomodel.Config) (int64, error) {
	r, err := recio.NewReader(path, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	var n int64
	for {
		l, err := r.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		if l.Node == l.SCC {
			n++
		}
	}
}
