// Package edgefile implements the on-disk graph representation and the
// relational-style external operators (sorted scans, merge joins, semi-joins,
// anti-joins, degree aggregation, edge reversal and deduplication) that the
// paper's Algorithms 3, 4 and 5 are expressed in.
//
// A graph G_i(V_i, E_i) is stored as two files: an edge file of (u, v)
// records and a node file of sorted node identifiers, each laid out by the
// run's codec family (fixed records or compressed frames; readers
// auto-detect, see package recio).  The node file is explicit because
// isolated nodes carry no edges yet still need an SCC label, and because the
// contraction phase needs V_i - V_{i+1}.
package edgefile

import (
	"context"
	"fmt"
	"io"
	"slices"

	"extscc/internal/blockio"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// Graph is an on-disk directed graph.
type Graph struct {
	// EdgePath is the path of the edge file ((u,v) records, in arbitrary
	// order unless Sorted).
	EdgePath string
	// NodePath is the path of the node file (sorted ascending, no duplicates).
	NodePath string
	// NumNodes is |V|.
	NumNodes int64
	// NumEdges is the number of records in the edge file: |E| counting
	// parallel edges, which a Sorted file has none of.
	NumEdges int64
	// Sorted declares that the edge file is sorted by source
	// (record.EdgeBySource) and holds no duplicate edges.  The file's writer
	// declares it; it is never inferred by inspecting the file.  A
	// contraction step hands its next graph over Sorted and reads a Sorted
	// edge file as E_out without sorting it, and OutDegrees fails with
	// ErrUnsorted on an edge file that breaks the declaration.
	Sorted bool
}

// ErrUnsorted reports an edge file that breaks its declared layout: an edge
// out of source order, one equal to the previous edge, or a self-loop where
// the reader needs none.  It wraps blockio.ErrCorrupt.
var ErrUnsorted = fmt.Errorf("%w: edge file not sorted by source and deduplicated", blockio.ErrCorrupt)

// String summarises the graph for logs.
func (g Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d edges=%s nodes=%s}", g.NumNodes, g.NumEdges, g.EdgePath, g.NodePath)
}

// Remove deletes both backing files from cfg's storage backend.
func (g Graph) Remove(cfg iomodel.Config) error {
	if err := blockio.Remove(g.EdgePath, cfg); err != nil {
		return err
	}
	return blockio.Remove(g.NodePath, cfg)
}

// WriteGraph materialises an in-memory edge list and node list as an on-disk
// graph rooted in dir.  The graph's node set is the union of the edge
// endpoints and nodes (which therefore only needs to list isolated nodes).
// It is primarily a test and example helper; large graphs are produced by
// streaming generators instead.
func WriteGraph(dir string, edges []record.Edge, nodes []record.NodeID, cfg iomodel.Config) (Graph, error) {
	edgePath := blockio.TempFile(dir, "graph-edges", cfg.Stats)
	if err := recio.WriteSlice(edgePath, record.EdgeCodec{}, cfg, edges); err != nil {
		return Graph{}, err
	}
	nodePath := blockio.TempFile(dir, "graph-nodes", cfg.Stats)
	{
		seen := map[record.NodeID]struct{}{}
		for _, e := range edges {
			seen[e.U] = struct{}{}
			seen[e.V] = struct{}{}
		}
		for _, n := range nodes {
			seen[n] = struct{}{}
		}
		nodes = make([]record.NodeID, 0, len(seen))
		for n := range seen {
			nodes = append(nodes, n)
		}
		// Map iteration order is random per process; sort so the staged file
		// is deterministic (the varint codec's delta encoding makes byte
		// counts order-sensitive, and cross-backend tests compare them).
		slices.Sort(nodes)
	}
	if err := recio.WriteSlice(nodePath, record.NodeCodec{}, cfg, nodes); err != nil {
		return Graph{}, err
	}
	return Graph{
		EdgePath: edgePath,
		NodePath: nodePath,
		NumNodes: int64(len(nodes)),
		NumEdges: int64(len(edges)),
	}, nil
}

// GraphFromEdgeFile builds a Graph around an existing edge file, deriving the
// node set from the edge endpoints (plus extraNodes, typically the isolated
// nodes known to the generator).  The edge file is not copied.
func GraphFromEdgeFile(edgePath, dir string, extraNodes []record.NodeID, cfg iomodel.Config) (Graph, error) {
	numEdges, err := recio.CountRecords(edgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		return Graph{}, err
	}
	// Emit every endpoint (and the extra nodes) then sort + dedupe.
	endpoints := blockio.TempFile(dir, "endpoints", cfg.Stats)
	ew, err := recio.NewWriter(endpoints, record.NodeCodec{}, cfg)
	if err != nil {
		return Graph{}, err
	}
	er, err := recio.NewReader(edgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		ew.Close()
		return Graph{}, err
	}
	for {
		e, err := er.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			er.Close()
			ew.Close()
			return Graph{}, err
		}
		if err := ew.Write(e.U); err != nil {
			er.Close()
			ew.Close()
			return Graph{}, err
		}
		if err := ew.Write(e.V); err != nil {
			er.Close()
			ew.Close()
			return Graph{}, err
		}
	}
	er.Close()
	for _, n := range extraNodes {
		if err := ew.Write(n); err != nil {
			ew.Close()
			return Graph{}, err
		}
	}
	if err := ew.Close(); err != nil {
		return Graph{}, err
	}
	defer blockio.Remove(endpoints, cfg)

	sorted := blockio.TempFile(dir, "endpoints-sorted", cfg.Stats)
	sorter := extsort.New[record.NodeID](record.NodeCodec{}, record.NodeByID, cfg)
	if err := sorter.SortFile(endpoints, sorted); err != nil {
		return Graph{}, err
	}
	defer blockio.Remove(sorted, cfg)

	sr, err := recio.NewReader(sorted, record.NodeCodec{}, cfg)
	if err != nil {
		return Graph{}, err
	}
	defer sr.Close()
	nodePath := blockio.TempFile(dir, "graph-nodes", cfg.Stats)
	numNodes, err := DedupeNodes(sr.Iter(), nodePath, cfg)
	if err != nil {
		return Graph{}, err
	}
	return Graph{EdgePath: edgePath, NodePath: nodePath, NumNodes: numNodes, NumEdges: numEdges}, nil
}

// SortEdges sorts the edge file at in into a new file at out under the given
// order (record.EdgeBySource or record.EdgeByTarget).
func SortEdges(in, out string, key func(record.Edge) record.Key, cfg iomodel.Config) error {
	return SortEdgesContext(context.Background(), in, out, key, cfg)
}

// SortEdgesContext is SortEdges under a cancellation context: cancelling ctx
// aborts the sort and removes its temporaries.
func SortEdgesContext(ctx context.Context, in, out string, key func(record.Edge) record.Key, cfg iomodel.Config) error {
	return extsort.NewContext[record.Edge](ctx, record.EdgeCodec{}, key, cfg).SortFile(in, out)
}

// DedupeEdges writes the sorted edge stream in to out, dropping consecutive
// duplicates (parallel edges), and returns the number of surviving edges.
// If dropSelfLoops is set, edges (u, u) are dropped as well.
func DedupeEdges(in recio.Iterator[record.Edge], out string, dropSelfLoops bool, cfg iomodel.Config) (int64, error) {
	return recio.WriteFile(out, record.EdgeCodec{}, cfg, func(w recio.Sink[record.Edge]) error {
		var prev record.Edge
		first := true
		for {
			e, ok, err := in.Next()
			if err != nil || !ok {
				return err
			}
			if dropSelfLoops && e.U == e.V || !first && e == prev {
				continue
			}
			if err := w.Write(e); err != nil {
				return err
			}
			prev, first = e, false
		}
	})
}

// DedupeNodes writes the sorted node stream in to out, dropping duplicates,
// and returns the number of surviving nodes.
func DedupeNodes(in recio.Iterator[record.NodeID], out string, cfg iomodel.Config) (int64, error) {
	return recio.WriteFile(out, record.NodeCodec{}, cfg, func(w recio.Sink[record.NodeID]) error {
		var prev record.NodeID
		first := true
		for {
			n, ok, err := in.Next()
			if err != nil || !ok {
				return err
			}
			if !first && n == prev {
				continue
			}
			if err := w.Write(n); err != nil {
				return err
			}
			prev, first = n, false
		}
	})
}

// ReverseEdges writes every edge of the edge file at in, reversed, to out.
func ReverseEdges(in string, out recio.Sink[record.Edge], cfg iomodel.Config) error {
	r, err := recio.NewReader(in, record.EdgeCodec{}, cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		e, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := out.Write(e.Reverse()); err != nil {
			return err
		}
	}
}

// OutDegrees scans eout, an edge stream sorted by source without duplicate
// edges, once: it writes the out-degree table to vout, one NodeDegree per
// source with DegOut set, in node order, and pushes the target of every edge
// to targets.  Sorted, the targets give the in-degrees that ComputeDegrees
// merges in.  An edge that does not follow the previous one in source
// order, or with noSelfLoops a self-loop, fails the scan with ErrUnsorted:
// it would otherwise count a wrong degree.
func OutDegrees(eout recio.Iterator[record.Edge], vout recio.Sink[record.NodeDegree], targets recio.Sink[record.NodeID], noSelfLoops bool) error {
	var cur record.NodeDegree // the source being counted, none while DegOut is 0
	var prev record.Edge
	for {
		e, ok, err := eout.Next()
		if err != nil {
			return err
		}
		if ok && cur.DegOut > 0 && !record.EdgeBySource(prev).Less(record.EdgeBySource(e)) {
			return fmt.Errorf("%w: edge %v after %v", ErrUnsorted, e, prev)
		}
		if ok && noSelfLoops && e.U == e.V {
			return fmt.Errorf("%w: self-loop %v", ErrUnsorted, e)
		}
		prev = e
		if cur.DegOut > 0 && (!ok || e.U != cur.Node) {
			if err := vout.Write(cur); err != nil {
				return err
			}
			cur.DegOut = 0
		}
		if !ok {
			return nil
		}
		cur.Node = e.U
		cur.DegOut++
		if err := targets.Write(e.V); err != nil {
			return err
		}
	}
}

// ComputeDegrees builds the degree table V_d of Algorithm 3 from the
// out-degree table vout (see OutDegrees) and the ascending stream of every
// edge's target, in which a run of equal ids is one node's in-degree.  The
// result is one NodeDegree record per node that has at least one incident
// edge, sorted by node id.  When requireBoth is set (the Type-1
// node-reduction of Section VII), nodes with zero in-degree or zero
// out-degree are omitted.
func ComputeDegrees(vout recio.Iterator[record.NodeDegree], targets recio.Iterator[record.NodeID], outPath string, requireBoth bool, cfg iomodel.Config) (int64, error) {
	return recio.WriteFile(outPath, record.NodeDegreeCodec{}, cfg, func(w recio.Sink[record.NodeDegree]) error {
		outs := recio.NewPeekable(vout)
		ins := recio.NewPeekable(targets)
		for outs.Valid() || ins.Valid() {
			var d record.NodeDegree
			if outs.Valid() && (!ins.Valid() || outs.Peek().Node <= ins.Peek()) {
				d = outs.Pop()
			} else {
				d.Node = ins.Peek()
			}
			for ins.Valid() && ins.Peek() == d.Node {
				ins.Pop()
				d.DegIn++
			}
			if requireBoth && (d.DegIn == 0 || d.DegOut == 0) {
				continue
			}
			if err := w.Write(d); err != nil {
				return err
			}
		}
		if err := outs.Err(); err != nil {
			return err
		}
		return ins.Err()
	})
}

// MergeEdges merges two edge streams sorted by source into one stream sorted
// by source; an edge both hold is yielded twice, once from each.
func MergeEdges(a, b recio.Iterator[record.Edge]) recio.Iterator[record.Edge] {
	return &mergedEdges{a: recio.NewPeekable(a), b: recio.NewPeekable(b)}
}

type mergedEdges struct{ a, b *recio.Peekable[record.Edge] }

// Next implements recio.Iterator.
func (m *mergedEdges) Next() (record.Edge, bool, error) {
	if err := firstErr(m.a.Err(), m.b.Err()); err != nil {
		return record.Edge{}, false, err
	}
	switch {
	case m.a.Valid() && (!m.b.Valid() || !record.EdgeBySource(m.b.Peek()).Less(record.EdgeBySource(m.a.Peek()))):
		return m.a.Pop(), true, nil
	case m.b.Valid():
		return m.b.Pop(), true, nil
	}
	return record.Edge{}, false, nil
}

// SplitByMembership streams the edges of in (sorted by the join key that
// byTarget selects) against the sorted node file at nodePath, writing every
// edge whose key is a member of the node file to members and every other
// edge to others, each in input order.  It is the semi-join and the
// anti-join of Algorithm 4 (V_{i+1} ✶ E and its complement) in one pass.
func SplitByMembership(in recio.Iterator[record.Edge], nodePath string, members, others recio.Sink[record.Edge], byTarget bool, cfg iomodel.Config) error {
	nR, err := recio.NewReader(nodePath, record.NodeCodec{}, cfg)
	if err != nil {
		return err
	}
	defer nR.Close()
	nodes := recio.NewPeekable[record.NodeID](nR.Iter())
	for {
		e, ok, err := in.Next()
		if err != nil || !ok {
			return firstErr(err, nodes.Err())
		}
		k := e.U
		if byTarget {
			k = e.V
		}
		for nodes.Valid() && nodes.Peek() < k {
			nodes.Pop()
		}
		out := others
		if nodes.Valid() && nodes.Peek() == k {
			out = members
		}
		if err := out.Write(e); err != nil {
			return err
		}
	}
}

// MergeLabels merges two label files sorted by node id into outPath, keeping
// the node order, and returns the number of labels written.  The inputs must
// have disjoint node sets (kept nodes vs. removed nodes).
func MergeLabels(aPath, bPath, outPath string, cfg iomodel.Config) (int64, error) {
	aR, err := recio.NewReader(aPath, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	defer aR.Close()
	bR, err := recio.NewReader(bPath, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	defer bR.Close()
	w, err := recio.NewWriter(outPath, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	a := recio.NewPeekable[record.Label](aR.Iter())
	b := recio.NewPeekable[record.Label](bR.Iter())
	for a.Valid() || b.Valid() {
		var next record.Label
		switch {
		case a.Valid() && b.Valid():
			if a.Peek().Node <= b.Peek().Node {
				next = a.Pop()
			} else {
				next = b.Pop()
			}
		case a.Valid():
			next = a.Pop()
		default:
			next = b.Pop()
		}
		if err := w.Write(next); err != nil {
			w.Close()
			return 0, err
		}
	}
	if err := firstErr(a.Err(), b.Err()); err != nil {
		w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), nil
}

// Split is the result of partitioning a graph by source-node range: one
// internal subgraph per shard (both endpoints inside the shard's range) plus
// a single file of the cross-shard edges.
type Split struct {
	// Shards holds the internal subgraph of every shard, in ascending
	// node-range order; each Graph's node file is the shard's slice of the
	// input node file (sorted, disjoint, covering).
	Shards []Graph
	// CrossPath is the edge file of every edge whose endpoints fall in two
	// different shards.
	CrossPath string
	// NumCross is the number of cross-shard edges.
	NumCross int64
}

// Remove deletes every file of the split from cfg's storage backend.
func (s *Split) Remove(cfg iomodel.Config) error {
	for _, g := range s.Shards {
		if err := g.Remove(cfg); err != nil {
			return err
		}
	}
	return blockio.Remove(s.CrossPath, cfg)
}

// SplitByNodeRange partitions g into k shards of contiguous node ranges
// whose node counts differ by at most one: the node of rank r in the sorted
// node file goes to shard ⌊r·k/|V|⌋, every edge with both endpoints in one
// range goes to that shard's internal edge file, and every remaining edge
// goes to the shared cross file.  Two sequential scans (nodes, then edges);
// k must be in [1, NumNodes], so that no range is empty.
func SplitByNodeRange(ctx context.Context, g Graph, dir string, k int, cfg iomodel.Config) (*Split, error) {
	if k < 1 || int64(k) > g.NumNodes {
		return nil, fmt.Errorf("edgefile: SplitByNodeRange k=%d outside [1, %d]", k, g.NumNodes)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 1: slice the sorted node file into k per-shard node files,
	// recording each shard's lowest node id for the edge router.
	split := &Split{Shards: make([]Graph, k)}
	lows := make([]record.NodeID, 0, k)
	nodeR, err := recio.NewReader(g.NodePath, record.NodeCodec{}, cfg)
	if err != nil {
		return nil, err
	}
	nodeWs := make([]*recio.Writer[record.NodeID], k)
	closeAll := func() {
		for _, w := range nodeWs {
			if w != nil {
				w.Close()
			}
		}
	}
	for i := range split.Shards {
		p := blockio.TempFile(dir, fmt.Sprintf("shard-%d-nodes", i), cfg.Stats)
		w, err := recio.NewWriter(p, record.NodeCodec{}, cfg)
		if err != nil {
			nodeR.Close()
			closeAll()
			return nil, err
		}
		nodeWs[i] = w
		split.Shards[i].NodePath = p
	}
	var seen int64
	for {
		n, err := nodeR.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			nodeR.Close()
			closeAll()
			return nil, err
		}
		shard := int(seen * int64(k) / g.NumNodes)
		if shard >= k {
			shard = k - 1
		}
		if shard == len(lows) {
			lows = append(lows, n)
		}
		if err := nodeWs[shard].Write(n); err != nil {
			nodeR.Close()
			closeAll()
			return nil, err
		}
		seen++
	}
	nodeR.Close()
	for i, w := range nodeWs {
		if err := w.Close(); err != nil {
			return nil, err
		}
		split.Shards[i].NumNodes = w.Count()
		nodeWs[i] = nil
	}
	if seen != g.NumNodes || len(lows) != k {
		return nil, fmt.Errorf("edgefile: node file has %d nodes in %d ranges, metadata says %d in %d", seen, len(lows), g.NumNodes, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// shardOf routes a node id to the range that owns it: the last range
	// whose lowest id is <= the node.
	shardOf := func(n record.NodeID) int {
		lo, hi := 0, k-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if lows[mid] <= n {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo
	}

	// Pass 2: route every edge to its shard's internal file or the cross
	// file.
	edgeR, err := recio.NewReader(g.EdgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		return nil, err
	}
	defer edgeR.Close()
	edgeWs := make([]*recio.Writer[record.Edge], k+1)
	closeEdges := func() {
		for _, w := range edgeWs {
			if w != nil {
				w.Close()
			}
		}
	}
	for i := 0; i < k; i++ {
		p := blockio.TempFile(dir, fmt.Sprintf("shard-%d-edges", i), cfg.Stats)
		w, err := recio.NewWriter(p, record.EdgeCodec{}, cfg)
		if err != nil {
			closeEdges()
			return nil, err
		}
		edgeWs[i] = w
		split.Shards[i].EdgePath = p
	}
	split.CrossPath = blockio.TempFile(dir, "shard-cross-edges", cfg.Stats)
	crossW, err := recio.NewWriter(split.CrossPath, record.EdgeCodec{}, cfg)
	if err != nil {
		closeEdges()
		return nil, err
	}
	edgeWs[k] = crossW
	for {
		e, err := edgeR.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			closeEdges()
			return nil, err
		}
		w := crossW
		if su := shardOf(e.U); su == shardOf(e.V) {
			w = edgeWs[su]
		}
		if err := w.Write(e); err != nil {
			closeEdges()
			return nil, err
		}
	}
	for i, w := range edgeWs {
		if err := w.Close(); err != nil {
			return nil, err
		}
		if i < k {
			split.Shards[i].NumEdges = w.Count()
		} else {
			split.NumCross = w.Count()
		}
		edgeWs[i] = nil
	}
	return split, nil
}

// ConcatLabels appends the label files at parts into a single file at
// outPath and returns the total number of labels.  When the parts cover
// disjoint ascending node ranges (per-shard label files in shard order), the
// result is sorted by node.
func ConcatLabels(outPath string, cfg iomodel.Config, parts ...string) (int64, error) {
	w, err := recio.NewWriter(outPath, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	for _, p := range parts {
		r, err := recio.NewReader(p, record.LabelCodec{}, cfg)
		if err != nil {
			w.Close()
			return 0, err
		}
		for {
			l, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				w.Close()
				return 0, err
			}
			if err := w.Write(l); err != nil {
				r.Close()
				w.Close()
				return 0, err
			}
		}
		r.Close()
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), nil
}

// RepresentativeNodes writes to outPath the node ids that represent
// themselves in the mapping at mappingPath (label records with Node == SCC,
// sorted by node) — the node set of the condensed graph — and returns their
// count.
func RepresentativeNodes(mappingPath, outPath string, cfg iomodel.Config) (int64, error) {
	r, err := recio.NewReader(mappingPath, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	w, err := recio.NewWriter(outPath, record.NodeCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	for {
		l, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return 0, err
		}
		if l.Node == l.SCC {
			if err := w.Write(l.Node); err != nil {
				w.Close()
				return 0, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), nil
}

// ComposeLabels resolves a two-level labelling: the mapping at mappingPath
// sends every original node to a representative, and the label file at
// labelPath sends representatives on to their final labels.  The output at
// outPath labels every original node with its representative's final label,
// sorted by node id, and the count of its labels is returned.  Unless
// partial is set, every representative the mapping uses must appear in the
// label file, and a gap is an invariant violation that fails the compose.
// With partial set the label file lists only the representatives that move
// (EM-SCC's relabel file), and one it does not list keeps its own id.
//
// The mapping's sort by representative streams into the merge join with the
// label file, which writes the composed labels to a file under cfg.TempDir;
// their sort back into node order streams into outPath.
func ComposeLabels(ctx context.Context, mappingPath, labelPath, outPath string, partial bool, cfg iomodel.Config) (int64, error) {
	byRep, err := extsort.NewContext[record.Label](ctx, record.LabelCodec{}, record.LabelBySCC, cfg).SortPath(mappingPath)
	if err != nil {
		return 0, err
	}
	composed := blockio.TempFile(cfg.TempDir, "compose-raw", cfg.Stats)
	defer blockio.Remove(composed, cfg)
	n, err := recio.WriteFile(composed, record.LabelCodec{}, cfg, func(w recio.Sink[record.Label]) error {
		lR, err := recio.NewReader(labelPath, record.LabelCodec{}, cfg)
		if err != nil {
			return err
		}
		defer lR.Close()
		finals := recio.NewPeekable(lR.Iter())
		for {
			m, ok, err := byRep.Next()
			if err != nil || !ok {
				return err
			}
			for finals.Valid() && finals.Peek().Node < m.SCC {
				finals.Pop()
			}
			if err := finals.Err(); err != nil {
				return err
			}
			if finals.Valid() && finals.Peek().Node == m.SCC {
				m.SCC = finals.Peek().SCC
			} else if !partial {
				return fmt.Errorf("edgefile: ComposeLabels: representative %d of node %d has no final label", m.SCC, m.Node)
			}
			if err := w.Write(m); err != nil {
				return err
			}
		}
	})
	byRep.Close()
	if err != nil {
		return 0, err
	}
	nodeSorter := extsort.NewContext[record.Label](ctx, record.LabelCodec{}, record.LabelByNode, cfg)
	if err := nodeSorter.SortFile(composed, outPath); err != nil {
		return 0, err
	}
	return n, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
