// Package contraction implements the graph-contraction phase of Ext-SCC
// (Section V of the paper): Get-V (Algorithm 3) selects the nodes V_{i+1} of
// the contracted graph as a vertex cover of G_i under the degree-based ">"
// operator, and Get-E (Algorithm 4) rewires the edges so that the contracted
// graph G_{i+1} is SCC-preservable.  The Section VII optimisations (Type-1 /
// Type-2 node reduction, parallel-edge and self-loop elimination, and the
// refined ">" operator) are enabled through Options.Optimized.
//
// Every step is a sequential scan, a merge join of sorted files and sort
// streams, or an external sort, so the phase performs no random I/O.  A step
// writes each of its files once: eout (G_i's deduplicated edges by source),
// ein (by target; unoptimised only), the degree table vd, E_d (ed), ein-trim
// (E_d as plain edges, optimised only, which the cover scan writes as it
// reads E_d), the cover, the removed nodes' in-edges edel and out-edges
// eout-del (one split pass over the in-edge list cuts them off on its way to
// E_pre), next-edges (E_pre, then E_add) and the removed-step file.
// Expansion needs only E_del, the removed nodes' edges to kept neighbours
// (Lemma 6.4), so the removed-step file hands those over and expansion never
// reads G_i.
package contraction

import (
	"container/heap"
	"context"
	"fmt"
	"io"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// Options selects the algorithm variant.
type Options struct {
	// Optimized enables the Section VII optimisations (Ext-SCC-Op): Type-1
	// and Type-2 node reduction, parallel-edge and self-loop elimination, and
	// the refined ">" operator of Definition 7.1.
	Optimized bool
	// Type2DictSize bounds the in-memory dictionary used for Type-2 node
	// reduction.  Zero derives a bound from the memory budget.
	Type2DictSize int
}

// Result describes one contraction step G_i -> G_{i+1}.
type Result struct {
	// Next is the contracted graph G_{i+1}.
	Next edgefile.Graph
	// RemovedPath is the removed-step file: a plain edge file that holds
	// one group per removed node v of V_i - V_{i+1}, in id order: the marker
	// (v, v), then v's in-edges (u, v) in u order, then v's out-edges (v, w)
	// in w order.  Self-loops of removed nodes are not written.  The cover
	// is a vertex cover of every edge of E_d but self-loops, so every edge
	// other than a marker has exactly one removed endpoint, its group's
	// node, and the layout is unambiguous; a removed node without kept
	// neighbours (an isolated or Type-1-trimmed node) still has its marker,
	// so expansion makes it a singleton.  In the optimised variant the
	// edges come from E_d, which Type-1 reduction trimmed; that gives the
	// same labels, since a trimmed neighbour is removed and has no label in
	// SCC_{i+1}, and a trimmed removed node lacks either in-edges or
	// out-edges, so it is a singleton either way.
	RemovedPath string
	// NumRemoved is |V_i - V_{i+1}|.
	NumRemoved int64
	// PreservedEdges is |E_pre|, the edges of G_i with both ends kept.
	PreservedEdges int64
	// AddedEdges is |E_add|, the rewiring edges created by node removal.
	AddedEdges int64
	// MaxRemovedDegree is the largest number of distinct neighbours among
	// removed nodes; Theorem 5.3 bounds it by sqrt(2|E_i|).
	MaxRemovedDegree uint64
}

// Contract performs one contraction step on g, writing all produced files
// into dir.  The input graph's files are left untouched.  Cancelling ctx
// aborts the step between operators (and inside the long per-record loops)
// and removes every intermediate file the step created.
func Contract(ctx context.Context, g edgefile.Graph, dir string, opts Options, cfg iomodel.Config) (Result, error) {
	c := &contractor{ctx: ctx, g: g, dir: dir, opts: opts, cfg: cfg}
	res, err := c.run()
	c.cleanup()
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// contractor carries the intermediate file paths of one contraction step so
// they can be cleaned up together.
type contractor struct {
	ctx  context.Context
	g    edgefile.Graph
	dir  string
	opts Options
	cfg  iomodel.Config

	temps []string
}

// checkEvery is how many records the per-record loops process between two
// cancellation checks.
const checkEvery = 8192

func (c *contractor) temp(prefix string) string {
	p := blockio.TempFile(c.dir, prefix, c.cfg.Stats)
	c.temps = append(c.temps, p)
	return p
}

// keep removes path from the cleanup list (it is part of the result).
func (c *contractor) keep(path string) {
	for i, p := range c.temps {
		if p == path {
			c.temps = append(c.temps[:i], c.temps[i+1:]...)
			return
		}
	}
}

func (c *contractor) cleanup() {
	for _, p := range c.temps {
		blockio.Remove(p, c.cfg)
	}
}

func (c *contractor) run() (Result, error) {
	if err := c.ctx.Err(); err != nil {
		return Result{}, err
	}
	// Step 1: the edge list E_out of Algorithms 3 and 4, sorted by source.
	// Parallel edges are always eliminated while the sorted edges stream
	// past (Example 5.1 removes them when constructing G_{i+1}; doing it
	// lazily here costs no extra I/O); the optimised variant additionally
	// drops self-loops (Section VII edge reduction).
	sorted, err := c.edgeSorter(record.EdgeBySource).SortPath(c.g.EdgePath)
	if err != nil {
		return Result{}, err
	}
	eout := c.temp("eout")
	_, err = edgefile.DedupeEdges(sorted, eout, c.opts.Optimized, c.cfg)
	sorted.Close()
	if err != nil {
		return Result{}, err
	}

	// Step 2: the degree table V_d, from E_out and E_in, the same edges
	// sorted by target.  Type-1 node reduction keeps only nodes with both a
	// positive in-degree and a positive out-degree.
	if err := c.ctx.Err(); err != nil {
		return Result{}, err
	}
	vd := c.temp("vd")
	ein, err := c.computeDegrees(eout, vd)
	if err != nil {
		return Result{}, err
	}

	// Step 3: the degree-augmented edge list E_d, sorted by target.
	ed, err := c.buildEd(eout, vd)
	if err != nil {
		return Result{}, err
	}

	// Step 4: V_{i+1}, the vertex cover of (the Type-1-trimmed) G_i.  In
	// optimised mode the rewiring operates on the trimmed edge list (the
	// projection of E_d), so every created edge has both ends in V_{i+1};
	// the cover scan writes it as it reads E_d.
	baseEin, einTrim := ein, ""
	if c.opts.Optimized {
		einTrim = c.temp("ein-trim")
		baseEin = einTrim
	}
	coverPath, numCover, err := c.buildCover(ed, einTrim)
	if err != nil {
		return Result{}, err
	}
	numRemoved := c.g.NumNodes - numCover
	if numRemoved <= 0 {
		return Result{}, fmt.Errorf("contraction: no node removed from a graph with %d nodes and %d edges (contractible property violated)", c.g.NumNodes, c.g.NumEdges)
	}

	// Step 5: the edges of the contracted graph, E_{i+1} = E_pre ∪ E_add,
	// written once: the split streams E_pre into the file, then the
	// rewiring pass appends E_add and writes the removed-step file.
	if err := c.ctx.Err(); err != nil {
		return Result{}, err
	}
	nextEdges, removedPath := c.temp("next-edges"), c.temp("removed")
	next, err := recio.NewWriter(nextEdges, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return Result{}, err
	}
	defer next.Close()
	edel, eoutDel, err := c.splitEdges(baseEin, coverPath, next)
	if err != nil {
		return Result{}, err
	}
	preserved := next.Count()
	markers, maxRemovedDeg, err := c.buildEadd(edel, eoutDel, coverPath, removedPath, next)
	if err != nil {
		return Result{}, err
	}
	if markers != numRemoved {
		return Result{}, fmt.Errorf("contraction: wrote %d removed nodes, but |V_i| - |V_{i+1}| = %d - %d", markers, c.g.NumNodes, numCover)
	}
	if err := next.Close(); err != nil {
		return Result{}, err
	}

	c.keep(coverPath)
	c.keep(removedPath)
	c.keep(nextEdges)
	return Result{
		Next: edgefile.Graph{
			EdgePath: nextEdges,
			NodePath: coverPath,
			NumNodes: numCover,
			NumEdges: next.Count(),
		},
		RemovedPath:      removedPath,
		NumRemoved:       numRemoved,
		PreservedEdges:   preserved,
		AddedEdges:       next.Count() - preserved,
		MaxRemovedDegree: maxRemovedDeg,
	}, nil
}

// edgeSorter returns a sorter of plain edges by key.
func (c *contractor) edgeSorter(key func(record.Edge) record.Key) *extsort.Sorter[record.Edge] {
	return extsort.NewContext(c.ctx, record.EdgeCodec{}, key, c.cfg)
}

// computeDegrees writes the degree table V_d of the edge file eout (sorted
// by source) to vd and returns the path of E_in, the same edges sorted by
// target.  In optimised mode nothing but the degree scan reads E_in, so its
// sort streams into the scan and the returned path is empty.
func (c *contractor) computeDegrees(eout, vd string) (string, error) {
	var ein string
	var in recio.Iterator[record.Edge]
	if c.opts.Optimized {
		st, err := c.edgeSorter(record.EdgeByTarget).SortPath(eout)
		if err != nil {
			return "", err
		}
		defer st.Close()
		in = st
	} else {
		ein = c.temp("ein")
		if err := edgefile.SortEdgesContext(c.ctx, eout, ein, record.EdgeByTarget, c.cfg); err != nil {
			return "", err
		}
		inR, err := recio.NewReader(ein, record.EdgeCodec{}, c.cfg)
		if err != nil {
			return "", err
		}
		defer inR.Close()
		in = inR.Iter()
	}
	outR, err := recio.NewReader(eout, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return "", err
	}
	defer outR.Close()
	_, err = edgefile.ComputeDegrees(outR.Iter(), in, vd, c.opts.Optimized, c.cfg)
	return ein, err
}

// buildEd produces E_d: every edge augmented with the comparison keys of both
// endpoints (lines 5-7 of Algorithm 3), sorted by (target, source).  Edges
// with an endpoint missing from V_d (possible only under Type-1 reduction)
// are dropped.  The join on the source pushes its output straight into the
// re-sort by target, whose stream feeds the join on the target.
func (c *contractor) buildEd(eout, vd string) (string, error) {
	refined := c.opts.Optimized
	rw, err := extsort.NewContext(c.ctx, record.EdgeAugCodec{}, record.EdgeAugByTarget, c.cfg).RunWriter()
	if err != nil {
		return "", err
	}
	defer rw.Abort()
	r, err := recio.NewReader(eout, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return "", err
	}
	err = joinEdgesWithDegrees(augmented{r.Iter()}, vd, rw, false, refined, c.cfg)
	r.Close()
	if err != nil {
		return "", err
	}
	byTarget, err := rw.Sort()
	if err != nil {
		return "", err
	}
	defer byTarget.Close()
	ed := c.temp("ed")
	_, err = recio.WriteFile(ed, record.EdgeAugCodec{}, c.cfg, func(w recio.Sink[record.EdgeAug]) error {
		return joinEdgesWithDegrees(byTarget, vd, w, true, refined, c.cfg)
	})
	return ed, err
}

// augmented lifts a plain edge stream to augmented edges with both keys
// unset.
type augmented struct{ edges recio.Iterator[record.Edge] }

func (a augmented) Next() (record.EdgeAug, bool, error) {
	e, ok, err := a.edges.Next()
	return record.EdgeAug{U: e.U, V: e.V}, ok, err
}

// joinEdgesWithDegrees merge-joins an augmented-edge stream with the degree
// table at vdPath and writes the joined edges to out, filling the key of the
// source endpoint (byTarget=false, input sorted by source) or of the target
// endpoint (byTarget=true, input sorted by target).
func joinEdgesWithDegrees(in recio.Iterator[record.EdgeAug], vdPath string, out recio.Sink[record.EdgeAug], byTarget, refined bool, cfg iomodel.Config) error {
	vdR, err := recio.NewReader(vdPath, record.NodeDegreeCodec{}, cfg)
	if err != nil {
		return err
	}
	defer vdR.Close()
	degrees := recio.NewPeekable[record.NodeDegree](vdR.Iter())
	for {
		rec, ok, err := in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return degrees.Err()
		}
		node := rec.U
		if byTarget {
			node = rec.V
		}
		for degrees.Valid() && degrees.Peek().Node < node {
			degrees.Pop()
		}
		if !degrees.Valid() || degrees.Peek().Node != node {
			continue // endpoint trimmed by Type-1 reduction
		}
		if byTarget {
			rec.KeyV = degrees.Peek().Key(refined)
		} else {
			rec.KeyU = degrees.Peek().Key(refined)
		}
		if err := out.Write(rec); err != nil {
			return err
		}
	}
}

// buildCover scans E_d once, adds the greater endpoint of every edge to the
// cover (lines 8-9 of Algorithm 3, with the Type-2 dictionary of Section VII
// in optimised mode), then sorts and deduplicates the cover node list.  The
// scan pushes the cover nodes straight into the sort, whose stream feeds the
// deduplication.  Unless einTrim is empty, the scan also projects E_d to
// plain edges into the file at einTrim, which keeps E_d's (target, source)
// order.  It returns the cover file and |V_{i+1}|.
func (c *contractor) buildCover(ed, einTrim string) (string, int64, error) {
	rw, err := extsort.NewContext(c.ctx, record.NodeCodec{}, record.NodeByID, c.cfg).RunWriter()
	if err != nil {
		return "", 0, err
	}
	defer rw.Abort()
	if einTrim != "" {
		_, err = recio.WriteFile(einTrim, record.EdgeCodec{}, c.cfg, func(trim recio.Sink[record.Edge]) error {
			return c.scanCover(ed, rw, trim)
		})
	} else {
		err = c.scanCover(ed, rw, nil)
	}
	if err != nil {
		return "", 0, err
	}
	sorted, err := rw.Sort()
	if err != nil {
		return "", 0, err
	}
	defer sorted.Close()
	cover := c.temp("cover")
	numCover, err := edgefile.DedupeNodes(sorted, cover, c.cfg)
	if err != nil {
		return "", 0, err
	}
	return cover, numCover, nil
}

// scanCover writes to out the cover node of every edge of the E_d file at
// ed that the Type-2 dictionary does not already cover, and every edge of
// E_d, projected to a plain edge, to trim unless it is nil.
func (c *contractor) scanCover(ed string, out recio.Sink[record.NodeID], trim recio.Sink[record.Edge]) error {
	r, err := recio.NewReader(ed, record.EdgeAugCodec{}, c.cfg)
	if err != nil {
		return err
	}
	defer r.Close()

	var dict *type2Dict
	if c.opts.Optimized {
		size := c.opts.Type2DictSize
		if size <= 0 {
			// One quarter of the memory budget, ~16 bytes per retained entry.
			size = int(c.cfg.Memory / 4 / 16)
			if size < 16 {
				size = 16
			}
		}
		dict = newType2Dict(size)
	}

	for scanned := 1; ; scanned++ {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if scanned%checkEvery == 0 {
			if err := c.ctx.Err(); err != nil {
				return err
			}
		}
		if trim != nil {
			if err := trim.Write(rec.Edge()); err != nil {
				return err
			}
		}
		if rec.U == rec.V {
			// A self-loop carries no inter-node connectivity, so it imposes no
			// cover constraint; skipping it keeps the contractible property
			// even when rewiring has turned 2-cycles into self-loops.
			continue
		}
		cover := rec.CoverNode()
		other := rec.OtherNode()
		if dict != nil {
			// Type-2 reduction: if the smaller endpoint is already known to be
			// in the cover, this edge is covered and the greater endpoint need
			// not be added for it.
			if dict.contains(other) {
				continue
			}
			var coverKey record.NodeKey
			if cover == rec.U {
				coverKey = rec.KeyU
			} else {
				coverKey = rec.KeyV
			}
			dict.insert(cover, coverKey)
		}
		if err := out.Write(cover); err != nil {
			return err
		}
	}
}

// splitEdges cuts the in-edge list at baseEin (sorted by target) three ways
// in one pass over it (lines 3 and 9-11 of Algorithm 4).  The edges into
// removed nodes go to the file edel, sorted by (target, source).  The rest
// are pushed into a sort by source, whose stream is split on the source:
// E_pre, the edges with both ends in the cover, goes to next, and the
// out-edges of removed nodes go to the file eoutDel, sorted by (source,
// target).
func (c *contractor) splitEdges(baseEin, coverPath string, next recio.Sink[record.Edge]) (edel, eoutDel string, err error) {
	rw, err := c.edgeSorter(record.EdgeBySource).RunWriter()
	if err != nil {
		return "", "", err
	}
	defer rw.Abort()
	r, err := recio.NewReader(baseEin, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return "", "", err
	}
	edel = c.temp("edel")
	_, err = recio.WriteFile(edel, record.EdgeCodec{}, c.cfg, func(del recio.Sink[record.Edge]) error {
		return edgefile.SplitByMembership(r.Iter(), coverPath, rw, del, true, c.cfg)
	})
	r.Close()
	if err != nil {
		return "", "", err
	}
	bySource, err := rw.Sort()
	if err != nil {
		return "", "", err
	}
	defer bySource.Close()
	eoutDel = c.temp("eout-del")
	_, err = recio.WriteFile(eoutDel, record.EdgeCodec{}, c.cfg, func(outDel recio.Sink[record.Edge]) error {
		return edgefile.SplitByMembership(bySource, coverPath, next, outDel, false, c.cfg)
	})
	if err != nil {
		return "", "", err
	}
	return edel, eoutDel, nil
}

// buildEadd walks the removed nodes, the node file of G_i minus the cover,
// merged with their in-edges (edel) and out-edges (eoutDel).  For every
// removed node v it writes v's group to the removed-step file at
// removedPath (see Result.RemovedPath) and connects every in-neighbour u to
// every out-neighbour w in next (lines 3-8 of Algorithm 4).  It returns the
// number of removed nodes and the largest number of distinct neighbours
// among them.  The neighbour lists of one removed node are buffered in
// memory; Theorem 5.3 bounds their size by sqrt(2|E_i|).
func (c *contractor) buildEadd(edel, eoutDel, coverPath, removedPath string, next recio.Sink[record.Edge]) (int64, uint64, error) {
	nodeR, err := recio.NewReader(c.g.NodePath, record.NodeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer nodeR.Close()
	coverR, err := recio.NewReader(coverPath, record.NodeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer coverR.Close()
	delR, err := recio.NewReader(edel, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer delR.Close()
	outR, err := recio.NewReader(eoutDel, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer outR.Close()

	nodes := recio.NewPeekable[record.NodeID](nodeR.Iter())
	cover := recio.NewPeekable[record.NodeID](coverR.Iter())
	inEdges := recio.NewPeekable[record.Edge](delR.Iter())
	outEdges := recio.NewPeekable[record.Edge](outR.Iter())
	var removed int64
	var maxRemovedDeg uint64
	var ins, outs []record.NodeID

	// scanned counts nodes and written rewiring records: one removed node
	// can emit |ins|*|outs| edges, so counting nodes alone would leave the
	// quadratic inner loop running unbounded work between cancellation
	// checks.
	scanned := 0
	tick := func() error {
		if scanned++; scanned%checkEvery == 0 {
			return c.ctx.Err()
		}
		return nil
	}
	_, err = recio.WriteFile(removedPath, record.EdgeCodec{}, c.cfg, func(w recio.Sink[record.Edge]) error {
		for nodes.Valid() {
			if err := tick(); err != nil {
				return err
			}
			v := nodes.Pop()
			for cover.Valid() && cover.Peek() < v {
				cover.Pop()
			}
			if cover.Valid() && cover.Peek() == v {
				continue
			}
			if err := w.Write(record.Edge{U: v, V: v}); err != nil {
				return err
			}
			removed++
			// Write v's in-edges, then its out-edges, to v's group, and
			// collect its neighbours.  Self-loops carry no inter-node
			// connectivity and are skipped.
			ins, outs = ins[:0], outs[:0]
			for inEdges.Valid() && inEdges.Peek().V == v {
				if e := inEdges.Pop(); e.U != v {
					if err := w.Write(e); err != nil {
						return err
					}
					ins = append(ins, e.U)
				}
			}
			// Theorem 5.3 bounds the number of distinct neighbours of a
			// removed node by sqrt(2|E_i|); track the largest observed
			// value, merging the out-neighbours with the ascending ins.
			deg, i := len(ins), 0
			for outEdges.Valid() && outEdges.Peek().U == v {
				if e := outEdges.Pop(); e.V != v {
					if err := w.Write(e); err != nil {
						return err
					}
					outs = append(outs, e.V)
					for i < len(ins) && ins[i] < e.V {
						i++
					}
					if i == len(ins) || ins[i] != e.V {
						deg++
					}
				}
			}
			maxRemovedDeg = max(maxRemovedDeg, uint64(deg))
			for _, u := range ins {
				for _, t := range outs {
					if err := tick(); err != nil {
						return err
					}
					if u == t {
						// The rewiring of a 2-cycle through the removed node
						// would be a self-loop; it carries no SCC information
						// (u and v are already strongly connected via v,
						// which the expansion phase recovers from the
						// neighbour SCC sets), and keeping it would
						// eventually block the contractible property.  The
						// paper drops self circles when building G_{i+1}
						// (Example 5.1).
						continue
					}
					if err := next.Write(record.Edge{U: u, V: t}); err != nil {
						return err
					}
				}
			}
		}
		for _, err := range []error{nodes.Err(), cover.Err(), inEdges.Err(), outEdges.Err()} {
			if err != nil {
				return err
			}
		}
		if inEdges.Valid() || outEdges.Valid() {
			return fmt.Errorf("contraction: an edge of E_del has no removed endpoint")
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return removed, maxRemovedDeg, nil
}

// ---------------------------------------------------------------------------
// Type-2 dictionary
// ---------------------------------------------------------------------------

// type2Dict is the bounded in-memory dictionary T of Section VII: it retains
// the s smallest cover nodes (under the ">" operator) added so far, so that
// membership checks never exceed the memory budget.
type type2Dict struct {
	limit   int
	members map[record.NodeID]record.NodeKey
	order   type2Heap
}

type type2Entry struct {
	node record.NodeID
	key  record.NodeKey
}

type type2Heap []type2Entry

func (h type2Heap) Len() int { return len(h) }
func (h type2Heap) Less(i, j int) bool {
	// Max-heap under ">": the greatest retained node is at the top, ready to
	// be evicted first.
	return record.Greater(h[i].node, h[i].key, h[j].node, h[j].key)
}
func (h type2Heap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *type2Heap) Push(x any)   { *h = append(*h, x.(type2Entry)) }
func (h *type2Heap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

func newType2Dict(limit int) *type2Dict {
	return &type2Dict{limit: limit, members: make(map[record.NodeID]record.NodeKey)}
}

func (d *type2Dict) contains(n record.NodeID) bool {
	_, ok := d.members[n]
	return ok
}

func (d *type2Dict) insert(n record.NodeID, key record.NodeKey) {
	if _, ok := d.members[n]; ok {
		return
	}
	if len(d.members) < d.limit {
		d.members[n] = key
		heap.Push(&d.order, type2Entry{node: n, key: key})
		return
	}
	// Full: keep the smaller of the new node and the current greatest entry.
	top := d.order[0]
	if record.Greater(n, key, top.node, top.key) {
		return // the new node is greater than everything retained; drop it
	}
	heap.Pop(&d.order)
	delete(d.members, top.node)
	d.members[n] = key
	heap.Push(&d.order, type2Entry{node: n, key: key})
}
