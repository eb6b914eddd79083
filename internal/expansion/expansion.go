// Package expansion implements the graph-expansion phase of Ext-SCC
// (Section VI, Algorithm 5): given the SCC labels of the contracted graph
// G_{i+1}, it recovers the SCC of every node removed when G_{i+1} was built
// from G_i, using only sequential scans and external sorts.
//
// For a removed node v, Lemma 6.4 shows SCC(v, G_i) is determined by the SCC
// sets of its in-neighbours and out-neighbours in G_i: if the two sets share
// a component, v belongs to that (unique) component; otherwise v is a
// singleton SCC.  A removed neighbour has no label in SCC_{i+1}, so only the
// edges between v and its kept neighbours count: the E_del edges that
// contraction step i hands over in its removed-step file.  A step reads that
// file and the labels of V_{i+1}, never G_i.  It writes the annotated in- and
// out-edges (aug-in-annotated, aug-out-annotated), the in side sorted for the
// intersection (aug-in), the removed nodes' labels and SCC_i.
package expansion

import (
	"context"
	"io"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// Input bundles what one expansion step needs.
type Input struct {
	// EdgePath is the edge file of G_i.  It is not read, since the
	// removed-step file carries every edge a step needs; the field stays
	// only because perfbench's replica of the engine (perfbench/batch.go)
	// sets it.
	EdgePath string
	// RemovedPath is contraction step i's removed-step file
	// (contraction.Result.RemovedPath): per removed node v of V_i - V_{i+1},
	// in id order, the marker (v, v), then v's in-edges (u, v) in u order,
	// then its out-edges (v, w) in w order, without self-loops.  The cover
	// is a vertex cover of E_d, so every edge but a marker has exactly one
	// removed endpoint, its group's node; a removed node without kept
	// neighbours has its marker alone and becomes a singleton.  In the
	// optimised variant the edges come from the Type-1-trimmed E_d, which
	// gives the same labels: a trimmed neighbour is removed, so it has no
	// label in SCC_{i+1}, and a trimmed removed node lacks in-edges or
	// out-edges, so it is a singleton either way.
	RemovedPath string
	// KeptLabelsPath is the label file of V_{i+1} (SCC_{i+1}), sorted by node.
	KeptLabelsPath string
}

// Result describes one expansion step.
type Result struct {
	// LabelPath is SCC_i: the labels of every node of V_i, sorted by node id.
	LabelPath string
	// NumLabels is |V_i|.
	NumLabels int64
	// RecoveredIntoExisting counts removed nodes that joined an SCC of the
	// contracted graph.
	RecoveredIntoExisting int64
	// Singletons counts removed nodes that form single-node SCCs.
	Singletons int64
}

// Expand computes SCC_i from SCC_{i+1}, writing all produced files into dir.
func Expand(in Input, dir string, cfg iomodel.Config) (Result, error) {
	return ExpandContext(context.Background(), in, dir, cfg)
}

// ExpandContext is Expand under a cancellation context: cancelling ctx aborts
// the step inside its external sorts and removes every intermediate file the
// step created.
func ExpandContext(ctx context.Context, in Input, dir string, cfg iomodel.Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &expander{ctx: ctx, in: in, dir: dir, cfg: cfg}
	res, err := e.run()
	e.cleanup()
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

type expander struct {
	ctx   context.Context
	in    Input
	dir   string
	cfg   iomodel.Config
	temps []string
}

func (e *expander) temp(prefix string) string {
	p := blockio.TempFile(e.dir, prefix, e.cfg.Stats)
	e.temps = append(e.temps, p)
	return p
}

func (e *expander) keep(path string) {
	for i, p := range e.temps {
		if p == path {
			e.temps = append(e.temps[:i], e.temps[i+1:]...)
			return
		}
	}
}

func (e *expander) cleanup() {
	for _, p := range e.temps {
		blockio.Remove(p, e.cfg)
	}
}

func (e *expander) run() (Result, error) {
	// E'_in: for every removed node, its in-neighbours annotated with their
	// SCC (augment(E_i), lines 2 and 8-14 of Algorithm 5).  The intersection
	// reads it next to E'_out, so it is written to a file.
	ins, err := e.augment(false)
	if err != nil {
		return Result{}, err
	}
	ein := e.temp("aug-in")
	_, err = recio.WriteAll(ein, record.EdgeSCCCodec{}, e.cfg, ins)
	ins.Close()
	if err != nil {
		return Result{}, err
	}
	// E'_out: the same over the reversed edges, yielding the out-neighbours;
	// its sort streams into the intersection.
	outs, err := e.augment(true)
	if err != nil {
		return Result{}, err
	}

	// SCC_del: one label per removed node (line 4 of Algorithm 5).
	removedLabels := e.temp("removed-labels")
	recovered, singletons, err := e.intersect(ein, outs, removedLabels)
	outs.Close()
	if err != nil {
		return Result{}, err
	}

	// SCC_i = SCC_{i+1} ∪ SCC_del, sorted by node id (lines 5-6).
	labelPath := e.temp("labels")
	n, err := edgefile.MergeLabels(e.in.KeptLabelsPath, removedLabels, labelPath, e.cfg)
	if err != nil {
		return Result{}, err
	}
	e.keep(labelPath)
	return Result{
		LabelPath:             labelPath,
		NumLabels:             n,
		RecoveredIntoExisting: recovered,
		Singletons:            singletons,
	}, nil
}

// augment implements the augment(E) procedure of Algorithm 5 over E_del:
// it scans the removed-step file and pushes every removed node's in-edges,
// or with reversed its out-edges reversed, into a sort by source, annotates
// the source (a kept neighbour) with its SCC in the contracted graph, and
// returns the stream of the result sorted by (target, SCC, source).
func (e *expander) augment(reversed bool) (*extsort.Stream[record.EdgeSCC], error) {
	suffix := "in"
	if reversed {
		suffix = "out"
	}

	// Sort by source, pushing the edges of the removed side straight into
	// the sort, and annotate the source with its SCC label.
	rw, err := extsort.NewContext(e.ctx, record.EdgeCodec{}, record.EdgeBySource, e.cfg).RunWriter()
	if err != nil {
		return nil, err
	}
	if err := e.scanRemoved(reversed, rw); err != nil {
		rw.Abort()
		return nil, err
	}
	bySource, err := rw.Sort()
	if err != nil {
		return nil, err
	}
	annotated := e.temp("aug-" + suffix + "-annotated")
	err = e.annotateWithLabels(bySource, annotated)
	bySource.Close()
	if err != nil {
		return nil, err
	}

	// Final order: (target, SCC, source), so the SCC sets of each removed
	// node are grouped and sorted for a linear intersection.
	return extsort.NewContext(e.ctx, record.EdgeSCCCodec{}, record.EdgeSCCByTargetSCC, e.cfg).SortPath(annotated)
}

// scanRemoved writes to out every in-edge (u, v) of the removed-step file,
// or with reversed every out-edge (v, w) reversed to (w, v), so that the
// removed node is the target either way.
func (e *expander) scanRemoved(reversed bool, out recio.Sink[record.Edge]) error {
	r, err := recio.NewReader(e.in.RemovedPath, record.EdgeCodec{}, e.cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	var v record.NodeID
	for {
		edge, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch {
		case edge.U == edge.V:
			v = edge.U // the marker of the next group
		case !reversed && edge.V == v:
			err = out.Write(edge)
		case reversed && edge.U == v:
			err = out.Write(edge.Reverse())
		}
		if err != nil {
			return err
		}
	}
}

// annotateWithLabels merge-joins the edge stream edges (sorted by source)
// with the kept-label file (sorted by node), writing EdgeSCC records to
// outPath; edges whose source has no label are dropped.
func (e *expander) annotateWithLabels(edges recio.Iterator[record.Edge], outPath string) error {
	lR, err := recio.NewReader(e.in.KeptLabelsPath, record.LabelCodec{}, e.cfg)
	if err != nil {
		return err
	}
	defer lR.Close()
	labels := recio.NewPeekable[record.Label](lR.Iter())
	_, err = recio.WriteFile(outPath, record.EdgeSCCCodec{}, e.cfg, func(w recio.Sink[record.EdgeSCC]) error {
		for {
			edge, ok, err := edges.Next()
			if err != nil {
				return err
			}
			if !ok {
				return labels.Err()
			}
			for labels.Valid() && labels.Peek().Node < edge.U {
				labels.Pop()
			}
			if labels.Valid() && labels.Peek().Node == edge.U {
				if err := w.Write(record.EdgeSCC{U: edge.U, V: edge.V, SCC: labels.Peek().SCC}); err != nil {
					return err
				}
			}
		}
	})
	return err
}

// intersect merge-joins E'_in (the file at einPath), E'_out (the stream
// eout) and the removed nodes, the markers of the removed-step file, on the
// removed node, intersecting the two (sorted) SCC sets of each node.  A
// non-empty intersection pins the node to that SCC (Lemma 6.2); otherwise
// the node is a singleton SCC labelled with its own id (Lemma 6.3).
func (e *expander) intersect(einPath string, eout recio.Iterator[record.EdgeSCC], outPath string) (recovered, singletons int64, err error) {
	inR, err := recio.NewReader(einPath, record.EdgeSCCCodec{}, e.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer inR.Close()
	remR, err := recio.NewReader(e.in.RemovedPath, record.EdgeCodec{}, e.cfg)
	if err != nil {
		return 0, 0, err
	}
	defer remR.Close()
	w, err := recio.NewWriter(outPath, record.LabelCodec{}, e.cfg)
	if err != nil {
		return 0, 0, err
	}

	ins := recio.NewPeekable[record.EdgeSCC](inR.Iter())
	outs := recio.NewPeekable(eout)
	removed := recio.NewPeekable[record.Edge](remR.Iter())

	for removed.Valid() {
		marker := removed.Pop()
		if marker.U != marker.V {
			continue // one of the group's edges
		}
		v := marker.U
		// Advance both annotated streams to node v's group and intersect the
		// two ascending SCC sequences.
		for ins.Valid() && ins.Peek().V < v {
			ins.Pop()
		}
		for outs.Valid() && outs.Peek().V < v {
			outs.Pop()
		}
		common, found := record.SCCID(0), false
		for ins.Valid() && ins.Peek().V == v && outs.Valid() && outs.Peek().V == v {
			a, b := ins.Peek().SCC, outs.Peek().SCC
			switch {
			case a == b:
				common, found = a, true
			case a < b:
				ins.Pop()
				continue
			default:
				outs.Pop()
				continue
			}
			break
		}
		// Drain the rest of v's groups so the streams stay aligned.
		for ins.Valid() && ins.Peek().V == v {
			ins.Pop()
		}
		for outs.Valid() && outs.Peek().V == v {
			outs.Pop()
		}
		label := record.Label{Node: v, SCC: v}
		if found {
			label.SCC = common
			recovered++
		} else {
			singletons++
		}
		if err := w.Write(label); err != nil {
			w.Close()
			return 0, 0, err
		}
	}
	for _, p := range []error{ins.Err(), outs.Err(), removed.Err()} {
		if p != nil {
			w.Close()
			return 0, 0, p
		}
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	return recovered, singletons, nil
}
