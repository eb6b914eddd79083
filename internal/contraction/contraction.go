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
// writes each of its files once: eout (G_i's deduplicated edges by source;
// a Sorted graph's edge file, which the previous step handed over in that
// form, is eout as it stands and is neither sorted nor copied), the
// out-degree table vout and the degree table vd (one scan of eout writes
// vout and sorts the targets, whose runs of equal ids are the in-degrees),
// ein-trim (E_d as plain edges, sorted by target; in the unoptimised variant
// nothing is trimmed and it is all of E_in), the cover candidates cover-raw
// and the cover, the removed nodes' in-edges edel and out-edges eout-del
// and the kept edges E_pre, by source, in epre (one split pass over
// ein-trim writes all three), the removed-step file, and next-edges, G_{i+1}
// sorted by source and deduplicated: one merge of epre with the sort of
// E_add, which the rewiring pass that writes the removed-step file pushes
// its edges into.  E_d itself, the degree-augmented edge list, is never a
// file: its sort by target carries each edge with its source's degrees (16
// bytes) and streams into the cover scan, which joins the target's degrees
// and writes ein-trim and cover-raw as it reads E_d.  Expansion needs only
// E_del, the removed nodes' edges to kept neighbours (Lemma 6.4), so the
// removed-step file hands those over and expansion never reads G_i.
package contraction

import (
	"container/heap"
	"context"
	"fmt"
	"unsafe"

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
	// Next is the contracted graph G_{i+1}, declared Sorted: its edge file
	// is sorted by source and holds no duplicate edges (nor, in the
	// optimised variant, self-loops), and NumEdges counts them.
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
	// AddedEdges is |E_add|, the rewiring edges created by node removal, as
	// written: an edge created through several removed nodes, or also in
	// E_pre, counts each time, so PreservedEdges + AddedEdges bounds
	// Next.NumEdges from above.
	AddedEdges int64
	// MaxRemovedDegree is the largest number of distinct neighbours among
	// removed nodes; Theorem 5.3 bounds it by sqrt(2|E_i|).
	MaxRemovedDegree uint64
}

// Contract performs one contraction step on g, writing all produced files
// into dir.  The input graph's files are left untouched.  If g is Sorted,
// its edge file is read as E_out and must be sorted by source without
// duplicates (and, in the optimised variant, without self-loops); a file
// that breaks that fails the step with edgefile.ErrUnsorted.  Cancelling ctx
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
	// past (Example 5.1 removes them when constructing G_{i+1}); the
	// optimised variant additionally drops self-loops (Section VII edge
	// reduction).  A Sorted graph's edge file, which the previous step
	// handed over in exactly that form, is E_out as it stands.
	eout := c.g.EdgePath
	if !c.g.Sorted {
		sorted, err := c.edgeSorter(record.EdgeBySource).SortPath(c.g.EdgePath)
		if err != nil {
			return Result{}, err
		}
		eout = c.temp("eout")
		_, err = edgefile.DedupeEdges(sorted, eout, c.opts.Optimized, c.cfg)
		sorted.Close()
		if err != nil {
			return Result{}, err
		}
	}

	// Step 2: the degree table V_d.  Type-1 node reduction keeps only nodes
	// with both a positive in-degree and a positive out-degree.
	if err := c.ctx.Err(); err != nil {
		return Result{}, err
	}
	vd := c.temp("vd")
	if err := c.computeDegrees(eout, vd); err != nil {
		return Result{}, err
	}

	// Steps 3 and 4: V_{i+1}, the vertex cover of (the Type-1-trimmed) G_i,
	// from one scan of E_d, the degree-augmented edge list sorted by target.
	// The rewiring operates on E_d's projection, which the cover scan writes
	// as it reads E_d: in optimised mode the trimmed edge list, so every
	// created edge has both ends in V_{i+1}, and otherwise all of E_in.
	ed, err := c.buildEd(eout, vd)
	if err != nil {
		return Result{}, err
	}
	einTrim, coverPath, numCover, err := c.buildCover(ed, vd)
	if err != nil {
		return Result{}, err
	}
	numRemoved := c.g.NumNodes - numCover
	if numRemoved <= 0 {
		return Result{}, fmt.Errorf("contraction: no node removed from a graph with %d nodes and %d edges (contractible property violated)", c.g.NumNodes, c.g.NumEdges)
	}

	// Step 5: the edges of the contracted graph, E_{i+1} = E_pre ∪ E_add,
	// handed over sorted by source and deduplicated, as step 1 of the next
	// contraction reads them.  The split writes E_pre, by source, to epre;
	// the rewiring pass pushes E_add into a sort by source and writes the
	// removed-step file; and one merge of the two writes next-edges,
	// dropping duplicates (and self-loops in the optimised variant) as
	// step 1 does.  E_add's run formation is the only sort holding memory
	// while the rewiring pass runs, and the merge is its stream's consumer.
	if err := c.ctx.Err(); err != nil {
		return Result{}, err
	}
	edel, eoutDel, epre, preserved, err := c.splitEdges(einTrim, coverPath)
	if err != nil {
		return Result{}, err
	}
	removedPath := c.temp("removed")
	rw, err := c.edgeSorter(record.EdgeBySource).RunWriter()
	if err != nil {
		return Result{}, err
	}
	defer rw.Abort()
	markers, added, maxRemovedDeg, err := c.buildEadd(edel, eoutDel, coverPath, removedPath, rw)
	if err != nil {
		return Result{}, err
	}
	if markers != numRemoved {
		return Result{}, fmt.Errorf("contraction: wrote %d removed nodes, but |V_i| - |V_{i+1}| = %d - %d", markers, c.g.NumNodes, numCover)
	}
	eadd, err := rw.Sort()
	if err != nil {
		return Result{}, err
	}
	defer eadd.Close()
	preR, err := recio.NewReader(epre, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return Result{}, err
	}
	defer preR.Close()
	nextEdges := c.temp("next-edges")
	numEdges, err := edgefile.DedupeEdges(edgefile.MergeEdges(preR.Iter(), eadd), nextEdges, c.opts.Optimized, c.cfg)
	if err != nil {
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
			NumEdges: numEdges,
			Sorted:   true,
		},
		RemovedPath:      removedPath,
		NumRemoved:       numRemoved,
		PreservedEdges:   preserved,
		AddedEdges:       added,
		MaxRemovedDegree: maxRemovedDeg,
	}, nil
}

// edgeSorter returns a sorter of plain edges by key.
func (c *contractor) edgeSorter(key func(record.Edge) record.Key) *extsort.Sorter[record.Edge] {
	return extsort.NewContext(c.ctx, record.EdgeCodec{}, key, c.cfg)
}

// nodeSorter returns a sorter of node ids.
func (c *contractor) nodeSorter() *extsort.Sorter[record.NodeID] {
	return extsort.NewContext(c.ctx, record.NodeCodec{}, record.NodeByID, c.cfg)
}

// computeDegrees writes the degree table V_d of the edge file eout (sorted
// by source) to vd.  One scan of eout writes the out-degree table vout and
// pushes every target into a sort of node ids, whose stream ComputeDegrees
// merges with vout.
func (c *contractor) computeDegrees(eout, vd string) error {
	rw, err := c.nodeSorter().RunWriter()
	if err != nil {
		return err
	}
	defer rw.Abort()
	r, err := recio.NewReader(eout, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return err
	}
	vout := c.temp("vout")
	_, err = recio.WriteFile(vout, record.NodeDegreeCodec{}, c.cfg, func(w recio.Sink[record.NodeDegree]) error {
		return edgefile.OutDegrees(r.Iter(), w, rw, c.opts.Optimized)
	})
	r.Close()
	if err != nil {
		return err
	}
	targets, err := rw.Sort()
	if err != nil {
		return err
	}
	defer targets.Close()
	outR, err := recio.NewReader(vout, record.NodeDegreeCodec{}, c.cfg)
	if err != nil {
		return err
	}
	defer outR.Close()
	_, err = edgefile.ComputeDegrees(outR.Iter(), targets, vd, c.opts.Optimized, c.cfg)
	return err
}

// buildEd returns E_d (lines 5-7 of Algorithm 3) sorted by (target,
// source): every edge of eout whose source is in V_d, carrying the source's
// in- and out-degree.  The join on the source pushes its output straight
// into the sort by target.  The target's degrees are not carried through
// the sort: the cover scan, the stream's one consumer, joins them from V_d
// as it reads E_d, so the sort moves 16 bytes per edge.  The sort reserves
// the Type-2 dictionary's memory, which the scan holds beside the stream.
func (c *contractor) buildEd(eout, vd string) (*extsort.Stream[record.EdgeAug], error) {
	r, err := recio.NewReader(eout, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	vdR, err := recio.NewReader(vd, record.NodeDegreeCodec{}, c.cfg)
	if err != nil {
		return nil, err
	}
	defer vdR.Close()
	var reserve int64 // the cover scan's Type-2 dictionary
	if c.opts.Optimized {
		reserve = type2DictBytes(c.type2DictSize())
	}
	sorter := extsort.NewContext(c.ctx, record.EdgeAugCodec{}, record.EdgeAugByTarget, c.cfg)
	return sorter.Reserve(reserve).Sort(&joined{edges: r.Iter(), degrees: recio.NewPeekable(vdR.Iter())})
}

// joined merge-joins an edge stream sorted by source with the degree table
// V_d, attaching the source's degrees.  An edge whose source is missing from
// V_d (trimmed by Type-1 reduction) is dropped.
type joined struct {
	edges   recio.Iterator[record.Edge]
	degrees *recio.Peekable[record.NodeDegree]
}

// Next implements recio.Iterator.
func (j *joined) Next() (record.EdgeAug, bool, error) {
	for {
		e, ok, err := j.edges.Next()
		if err != nil || !ok {
			if err == nil {
				err = j.degrees.Err()
			}
			return record.EdgeAug{}, false, err
		}
		d, ok, err := degreeOf(j.degrees, e.U)
		if err != nil {
			return record.EdgeAug{}, false, err
		}
		if ok {
			return record.EdgeAug{U: e.U, V: e.V, InU: d.DegIn, OutU: d.DegOut}, true, nil
		}
	}
}

// degreeOf advances degrees, a V_d stream read in ascending node order, to
// node n and returns n's row; ok is false when n has none (trimmed by Type-1
// reduction).
func degreeOf(degrees *recio.Peekable[record.NodeDegree], n record.NodeID) (d record.NodeDegree, ok bool, err error) {
	for degrees.Valid() && degrees.Peek().Node < n {
		degrees.Pop()
	}
	if !degrees.Valid() || degrees.Peek().Node != n {
		return record.NodeDegree{}, false, degrees.Err()
	}
	return degrees.Peek(), true, nil
}

// buildCover scans E_d once (lines 8-9 of Algorithm 3, with the Type-2
// dictionary of Section VII in optimised mode) and closes it.  The scan
// writes two files: E_d projected to plain edges, ein-trim, which keeps
// E_d's (target, source) order, and the cover candidates, cover-raw.  A
// stream may not feed another sort's run formation, so the candidates are
// a file; it is then sorted and deduplicated into the cover node list.  It
// returns ein-trim, the cover file and |V_{i+1}|.
func (c *contractor) buildCover(ed *extsort.Stream[record.EdgeAug], vd string) (einTrim, cover string, numCover int64, err error) {
	vdR, err := recio.NewReader(vd, record.NodeDegreeCodec{}, c.cfg)
	if err != nil {
		ed.Close()
		return "", "", 0, err
	}
	einTrim, raw := c.temp("ein-trim"), c.temp("cover-raw")
	_, err = recio.WriteFile(einTrim, record.EdgeCodec{}, c.cfg, func(proj recio.Sink[record.Edge]) error {
		_, err := recio.WriteFile(raw, record.NodeCodec{}, c.cfg, func(cands recio.Sink[record.NodeID]) error {
			return c.scanCover(ed, recio.NewPeekable(vdR.Iter()), proj, cands)
		})
		return err
	})
	vdR.Close()
	if cerr := ed.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", "", 0, err
	}
	sorted, err := c.nodeSorter().SortPath(raw)
	if err != nil {
		return "", "", 0, err
	}
	defer sorted.Close()
	cover = c.temp("cover")
	numCover, err = edgefile.DedupeNodes(sorted, cover, c.cfg)
	if err != nil {
		return "", "", 0, err
	}
	return einTrim, cover, numCover, nil
}

// scanCover drains E_d, sorted by (target, source), and joins each edge's
// target with the degree table degrees, dropping the edges whose target
// Type-1 reduction trimmed.  It writes every remaining edge, projected to a
// plain edge, to proj, and the cover node of every edge that the Type-2
// dictionary does not already cover to cands.  A cover node that the
// dictionary retains, or that equals the last one written, was written
// before and is skipped, so cands is smaller than E_d but holds every node
// of the cover.
func (c *contractor) scanCover(ed recio.Iterator[record.EdgeAug], degrees *recio.Peekable[record.NodeDegree], proj recio.Sink[record.Edge], cands recio.Sink[record.NodeID]) error {
	var dict *type2Dict
	if c.opts.Optimized {
		dict = newType2Dict(c.type2DictSize())
	}
	var last record.NodeID
	wrote := false
	for scanned := 1; ; scanned++ {
		rec, ok, err := ed.Next()
		if err != nil || !ok {
			if err == nil {
				err = degrees.Err()
			}
			return err
		}
		if scanned%checkEvery == 0 {
			if err := c.ctx.Err(); err != nil {
				return err
			}
		}
		dv, ok, err := degreeOf(degrees, rec.V)
		if err != nil {
			return err
		}
		if !ok {
			continue // target trimmed by Type-1 reduction
		}
		if err := proj.Write(rec.Edge()); err != nil {
			return err
		}
		if rec.U == rec.V {
			// A self-loop carries no inter-node connectivity, so it imposes no
			// cover constraint; skipping it keeps the contractible property
			// even when rewiring has turned 2-cycles into self-loops.
			continue
		}
		cover, coverKey, other := record.CoverEnd(rec.U, rec.Source().Key(c.opts.Optimized), rec.V, dv.Key(c.opts.Optimized))
		if dict != nil {
			// Type-2 reduction: if the smaller endpoint is already known to be
			// in the cover, this edge is covered and the greater endpoint need
			// not be added for it.
			if dict.contains(other) || dict.contains(cover) {
				continue
			}
			dict.insert(cover, coverKey)
		}
		if wrote && cover == last {
			continue
		}
		if err := cands.Write(cover); err != nil {
			return err
		}
		last, wrote = cover, true
	}
}

// splitEdges cuts the in-edge list at einTrim (sorted by target) three ways
// in one pass over it (lines 3 and 9-11 of Algorithm 4).  The edges into
// removed nodes go to the file edel, sorted by (target, source).  The rest
// are pushed into a sort by source, whose stream is split on the source:
// E_pre, the edges with both ends in the cover, goes to the file epre and
// the out-edges of removed nodes to the file eoutDel, both sorted by
// (source, target).  It also returns |E_pre|.
func (c *contractor) splitEdges(einTrim, coverPath string) (edel, eoutDel, epre string, preserved int64, err error) {
	rw, err := c.edgeSorter(record.EdgeBySource).RunWriter()
	if err != nil {
		return "", "", "", 0, err
	}
	defer rw.Abort()
	r, err := recio.NewReader(einTrim, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return "", "", "", 0, err
	}
	edel = c.temp("edel")
	_, err = recio.WriteFile(edel, record.EdgeCodec{}, c.cfg, func(del recio.Sink[record.Edge]) error {
		return edgefile.SplitByMembership(r.Iter(), coverPath, rw, del, true, c.cfg)
	})
	r.Close()
	if err != nil {
		return "", "", "", 0, err
	}
	bySource, err := rw.Sort()
	if err != nil {
		return "", "", "", 0, err
	}
	defer bySource.Close()
	eoutDel, epre = c.temp("eout-del"), c.temp("epre")
	_, err = recio.WriteFile(eoutDel, record.EdgeCodec{}, c.cfg, func(outDel recio.Sink[record.Edge]) error {
		preserved, err = recio.WriteFile(epre, record.EdgeCodec{}, c.cfg, func(pre recio.Sink[record.Edge]) error {
			return edgefile.SplitByMembership(bySource, coverPath, pre, outDel, false, c.cfg)
		})
		return err
	})
	if err != nil {
		return "", "", "", 0, err
	}
	return edel, eoutDel, epre, preserved, nil
}

// buildEadd walks the removed nodes, the node file of G_i minus the cover,
// merged with their in-edges (edel) and out-edges (eoutDel).  For every
// removed node v it writes v's group to the removed-step file at
// removedPath (see Result.RemovedPath) and connects every in-neighbour u to
// every out-neighbour w in eadd (lines 3-8 of Algorithm 4).  It returns the
// number of removed nodes, |E_add| and the largest number of distinct
// neighbours among the removed nodes.  The neighbour lists of one removed
// node are buffered in memory; Theorem 5.3 bounds their size by
// sqrt(2|E_i|).
func (c *contractor) buildEadd(edel, eoutDel, coverPath, removedPath string, eadd recio.Sink[record.Edge]) (removed, added int64, maxRemovedDeg uint64, err error) {
	nodeR, err := recio.NewReader(c.g.NodePath, record.NodeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer nodeR.Close()
	coverR, err := recio.NewReader(coverPath, record.NodeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer coverR.Close()
	delR, err := recio.NewReader(edel, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer delR.Close()
	outR, err := recio.NewReader(eoutDel, record.EdgeCodec{}, c.cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer outR.Close()

	nodes := recio.NewPeekable[record.NodeID](nodeR.Iter())
	cover := recio.NewPeekable[record.NodeID](coverR.Iter())
	inEdges := recio.NewPeekable[record.Edge](delR.Iter())
	outEdges := recio.NewPeekable[record.Edge](outR.Iter())
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
					if err := eadd.Write(record.Edge{U: u, V: t}); err != nil {
						return err
					}
					added++
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
		return 0, 0, 0, err
	}
	return removed, added, maxRemovedDeg, nil
}

// ---------------------------------------------------------------------------
// Type-2 dictionary
// ---------------------------------------------------------------------------

// type2DictBytes returns the memory a Type-2 dictionary of the given
// capacity holds: every entry's node and key in the heap, and the slots of
// the id index.
func type2DictBytes(size int) int64 {
	return int64(size)*int64(unsafe.Sizeof(record.NodeID(0))+unsafe.Sizeof(record.NodeKey{})) +
		int64(indexSlots(size))*int64(unsafe.Sizeof(uint32(0)))
}

// type2DictSize is the Type-2 dictionary's capacity: Options.Type2DictSize,
// or else the largest power of two whose dictionary fits one quarter of the
// memory budget (a power of two fills the index table exactly), and never
// fewer than 16 entries.
func (c *contractor) type2DictSize() int {
	if c.opts.Type2DictSize > 0 {
		return c.opts.Type2DictSize
	}
	size := 16
	for type2DictBytes(2*size) <= c.cfg.Memory/4 {
		size *= 2
	}
	return size
}

// type2Dict is the bounded in-memory dictionary T of Section VII: it retains
// the s smallest cover nodes (under the ">" operator) added so far, so that
// membership checks never exceed the memory budget.  The retained nodes
// form a flat max-heap under ">" (members, with their keys at the same
// positions of keys), so the greatest is evicted first, and an
// open-addressing index of their ids answers contains.
type type2Dict struct {
	limit   int
	members []record.NodeID
	keys    []record.NodeKey
	index   idSet
}

type type2Entry struct {
	node record.NodeID
	key  record.NodeKey
}

func newType2Dict(limit int) *type2Dict {
	return &type2Dict{
		limit:   limit,
		members: make([]record.NodeID, 0, limit),
		keys:    make([]record.NodeKey, 0, limit),
		index:   idSet{slots: make([]uint32, indexSlots(limit))},
	}
}

func (d *type2Dict) contains(n record.NodeID) bool { return d.index.has(n) }

func (d *type2Dict) insert(n record.NodeID, key record.NodeKey) {
	if d.index.has(n) {
		return
	}
	if len(d.members) < d.limit {
		d.index.add(n)
		heap.Push(d, type2Entry{node: n, key: key})
		return
	}
	// Full: keep the smaller of the new node and the current greatest entry.
	if record.Greater(n, key, d.members[0], d.keys[0]) {
		return // the new node is greater than everything retained; drop it
	}
	d.index.remove(d.members[0])
	d.index.add(n)
	d.members[0], d.keys[0] = n, key
	heap.Fix(d, 0)
}

// Len, Less, Swap, Push and Pop make the retained entries a heap.Interface:
// a max-heap under ">", whose root is the greatest retained node.
func (d *type2Dict) Len() int { return len(d.members) }
func (d *type2Dict) Less(i, j int) bool {
	return record.Greater(d.members[i], d.keys[i], d.members[j], d.keys[j])
}
func (d *type2Dict) Swap(i, j int) {
	d.members[i], d.members[j] = d.members[j], d.members[i]
	d.keys[i], d.keys[j] = d.keys[j], d.keys[i]
}
func (d *type2Dict) Push(x any) {
	e := x.(type2Entry)
	d.members, d.keys = append(d.members, e.node), append(d.keys, e.key)
}
func (d *type2Dict) Pop() any {
	n := len(d.members) - 1
	e := type2Entry{node: d.members[n], key: d.keys[n]}
	d.members, d.keys = d.members[:n], d.keys[:n]
	return e
}

// indexSlots returns the size of the id index for n entries: the smallest
// power of two at least 2n, so the index is at most half full.
func indexSlots(n int) int {
	size := 2
	for size < 2*n {
		size *= 2
	}
	return size
}

// idSet is an open-addressing set of node ids with linear probing.  A slot
// holds id+1, and 0 marks it empty; the id whose id+1 wraps to 0 is held by
// the flag top instead.
type idSet struct {
	slots []uint32
	top   bool
}

// home returns the slot an id hashes to (Fibonacci hashing on the top bits
// of the product, reduced to the power-of-two table).
func (s *idSet) home(id record.NodeID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15 >> 32) & uint64(len(s.slots)-1))
}

// find returns the slot that holds id, or the empty slot that ends its
// probe sequence.
func (s *idSet) find(id record.NodeID) (int, bool) {
	want, mask := id+1, len(s.slots)-1
	for i := s.home(id); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case want:
			return i, true
		case 0:
			return i, false
		}
	}
}

func (s *idSet) has(id record.NodeID) bool {
	if id+1 == 0 {
		return s.top
	}
	_, ok := s.find(id)
	return ok
}

func (s *idSet) add(id record.NodeID) {
	if id+1 == 0 {
		s.top = true
		return
	}
	if i, ok := s.find(id); !ok {
		s.slots[i] = id + 1
	}
}

// remove deletes id and closes the gap by shifting later entries of the
// probe run back (Knuth's Algorithm R), so no tombstones accumulate.
func (s *idSet) remove(id record.NodeID) {
	if id+1 == 0 {
		s.top = false
		return
	}
	hole, ok := s.find(id)
	if !ok {
		return
	}
	mask := len(s.slots) - 1
	for j := (hole + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies cyclically
		// in (hole, j], where a probe for it would stop at the hole first.
		h := s.home(s.slots[j] - 1)
		if hole <= j && (h <= hole || h > j) || hole > j && h <= hole && h > j {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = 0
}
