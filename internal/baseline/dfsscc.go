// Package baseline implements the two external SCC baselines the paper
// compares against:
//
//   - DFS-SCC: the external Kosaraju–Sharir algorithm (Algorithm 1), whose
//     node-at-a-time traversal issues a random I/O for essentially every
//     adjacency fetch and visited check.  An optional buffered repository
//     tree (package brt) defers edge-level visited checks the way Buchsbaum
//     et al. [8] do.
//   - EM-SCC: the contraction heuristic of Cosgaya-Lozano & Zeh [13], which
//     partitions the edge file, contracts partition-local SCCs and repeats;
//     it may fail to make progress (the paper's Case-1/Case-2) and is
//     reported as "did not converge" in that case.
package baseline

import (
	"context"
	"errors"
	"io"
	"time"

	"extscc/internal/blockio"
	"extscc/internal/brt"
	"extscc/internal/edgefile"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// ErrBudgetExceeded is returned when a baseline run exceeds its I/O cap; the
// benchmark harness reports such runs as INF, like the paper's 24-hour limit.
// Time limits are imposed through the context passed to DFSSCC / EMSCC.
var ErrBudgetExceeded = errors.New("baseline: I/O budget exceeded")

// DFSOptions configures a DFS-SCC run.
type DFSOptions struct {
	// UseBRT routes edge-level visited bookkeeping through a buffered
	// repository tree instead of checking the visited array per edge.
	UseBRT bool
	// MaxIOs aborts the run once the total number of block transfers charged
	// to the configuration exceeds this value (0 = no limit).
	MaxIOs int64
}

// DFSResult describes a DFS-SCC run.
type DFSResult struct {
	// LabelPath is the label file sorted by node id.
	LabelPath string
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// IO is the I/O charged by the run.
	IO iomodel.Snapshot
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// dfsState bundles what both DFS passes share.
type dfsState struct {
	ctx    context.Context
	g      edgefile.Graph
	dir    string
	opts   DFSOptions
	cfg    iomodel.Config
	start  time.Time
	ioBase iomodel.Snapshot
	temps  []string
}

func (s *dfsState) temp(prefix string) string {
	p := blockio.TempFile(s.dir, prefix, s.cfg.Stats)
	s.temps = append(s.temps, p)
	return p
}

func (s *dfsState) cleanup() {
	for _, p := range s.temps {
		blockio.Remove(p, s.cfg)
	}
}

func (s *dfsState) checkBudget() error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if s.opts.MaxIOs > 0 {
		spent := s.cfg.Stats.Snapshot().Sub(s.ioBase).TotalIOs()
		if spent > s.opts.MaxIOs {
			return ErrBudgetExceeded
		}
	}
	return nil
}

// DFSSCC computes all SCCs of g with the external Kosaraju–Sharir algorithm.
// Cancelling ctx (or letting its deadline pass) aborts the traversal within a
// few hundred DFS steps and removes every intermediate file.
func DFSSCC(ctx context.Context, g edgefile.Graph, dir string, opts DFSOptions, cfg iomodel.Config) (*DFSResult, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	// External DFS is defined by random access — adjacency lookups binary
	// search the sorted edge file and the postorder is replayed backwards.
	// Framed files carry a frame-index footer now, so record seeks work on
	// every codec family and the run honours the configured codec like the
	// other algorithms; the paper's cost profile is preserved because seeks
	// are charged as random I/O either way.
	if dir == "" {
		dir = cfg.TempDir
	}
	s := &dfsState{ctx: ctx, g: g, dir: dir, opts: opts, cfg: cfg, start: time.Now(), ioBase: cfg.Stats.Snapshot()}
	res, err := s.run()
	if err != nil {
		s.cleanup()
		return nil, err
	}
	return res, nil
}

func (s *dfsState) run() (*DFSResult, error) {
	if err := s.checkBudget(); err != nil {
		return nil, err
	}
	// Adjacency structure for the forward graph: the edge file sorted by
	// source; per-node adjacency is located by binary search (random I/Os).
	forward := s.temp("dfs-forward")
	if err := edgefile.SortEdges(s.g.EdgePath, forward, record.EdgeBySource, s.cfg); err != nil {
		return nil, err
	}
	// Pass 1: DFS over G producing a postorder of all nodes.
	postorder := s.temp("dfs-postorder")
	if err := s.dfsPass(forward, s.g.NodePath, postorder, nil); err != nil {
		return nil, err
	}

	// Adjacency structure for the reversed graph.
	reversedRaw := s.temp("dfs-reversed-raw")
	if err := edgefile.ReverseEdges(s.g.EdgePath, reversedRaw, s.cfg); err != nil {
		return nil, err
	}
	reversed := s.temp("dfs-reversed")
	if err := edgefile.SortEdges(reversedRaw, reversed, record.EdgeBySource, s.cfg); err != nil {
		return nil, err
	}

	// Pass 2: DFS over the reversed graph, taking roots in decreasing
	// postorder; every DFS tree is one SCC, labelled by its root.
	roots := s.temp("dfs-roots")
	if err := s.reverseOrder(postorder, roots); err != nil {
		return nil, err
	}
	labelsRaw := s.temp("dfs-labels-raw")
	labelWriter, err := recio.NewWriter(labelsRaw, record.LabelCodec{}, s.cfg)
	if err != nil {
		return nil, err
	}
	if err := s.dfsPass(reversed, roots, "", labelWriter); err != nil {
		labelWriter.Close()
		return nil, err
	}
	if err := labelWriter.Close(); err != nil {
		return nil, err
	}

	// Final labels sorted by node id.
	labelPath := blockio.TempFile(s.dir, "dfs-labels", s.cfg.Stats)
	sorter := extsort.NewContext[record.Label](s.ctx, record.LabelCodec{}, record.LabelByNode, s.cfg)
	if err := sorter.SortFile(labelsRaw, labelPath); err != nil {
		return nil, err
	}
	numSCCs, err := countDistinctSCCs(labelPath, s.cfg)
	if err != nil {
		return nil, err
	}
	s.cleanup()
	return &DFSResult{
		LabelPath: labelPath,
		NumSCCs:   numSCCs,
		IO:        s.cfg.Stats.Snapshot().Sub(s.ioBase),
		Duration:  time.Since(s.start),
	}, nil
}

// dfsPass runs one external DFS over the adjacency file adjPath (edges sorted
// by source).  Roots are taken in the order of rootsPath (a node file).  If
// postorderPath is non-empty the pass appends every finished node to it
// (pass 1); if labelWriter is non-nil the pass writes (node, root) labels
// (pass 2).
func (s *dfsState) dfsPass(adjPath, rootsPath, postorderPath string, labelWriter *recio.Writer[record.Label]) error {
	adj, err := newAdjacency(adjPath, s.cfg)
	if err != nil {
		return err
	}
	defer adj.close()

	maxNode, err := maxNodeID(s.g.NodePath, s.cfg)
	if err != nil {
		return err
	}
	// Visited flags live on disk behind a bounded block cache; half of the
	// memory budget is granted to the cache, the other half to the DFS stack.
	cacheBlocks := int(s.cfg.Memory / int64(s.cfg.BlockSize) / 2)
	visited, err := newDiskArray(s.dir, int64(maxNode)+1, cacheBlocks, s.cfg)
	if err != nil {
		return err
	}
	defer visited.close()
	stack, err := newDiskArray(s.dir, (int64(s.g.NumNodes)+1)*8, cacheBlocks, s.cfg)
	if err != nil {
		return err
	}
	defer stack.close()

	var post *recio.Writer[record.NodeID]
	if postorderPath != "" {
		post, err = recio.NewWriter(postorderPath, record.NodeCodec{}, s.cfg)
		if err != nil {
			return err
		}
		defer post.Close()
	}

	var tree *brt.Tree
	if s.opts.UseBRT {
		tree = brt.New(maxNode, s.dir, brt.Options{}, s.cfg)
		defer tree.Close()
	}

	rootsR, err := recio.NewReader(rootsPath, record.NodeCodec{}, s.cfg)
	if err != nil {
		return err
	}
	defer rootsR.Close()

	// stack layout: pairs of (node, adjacency cursor) stored as uint32 slots.
	stackLen := int64(0)
	push := func(n record.NodeID) error {
		if err := stack.setUint32(stackLen*2, n); err != nil {
			return err
		}
		if err := stack.setUint32(stackLen*2+1, 0); err != nil {
			return err
		}
		stackLen++
		return nil
	}

	isVisited := func(n record.NodeID) (bool, error) {
		b, err := visited.getByte(int64(n))
		return b != 0, err
	}
	markVisited := func(n record.NodeID) error { return visited.setByte(int64(n), 1) }

	steps := 0
	for {
		root, ok, err := nextNode(rootsR)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if v, err := isVisited(root); err != nil {
			return err
		} else if v {
			continue
		}
		if err := markVisited(root); err != nil {
			return err
		}
		if labelWriter != nil {
			if err := labelWriter.Write(record.Label{Node: root, SCC: root}); err != nil {
				return err
			}
		}
		if err := push(root); err != nil {
			return err
		}
		for stackLen > 0 {
			steps++
			if steps%256 == 0 {
				if err := s.checkBudget(); err != nil {
					return err
				}
			}
			node, err := stack.getUint32((stackLen - 1) * 2)
			if err != nil {
				return err
			}
			cursor, err := stack.getUint32((stackLen-1)*2 + 1)
			if err != nil {
				return err
			}
			targets, err := adj.neighbors(node)
			if err != nil {
				return err
			}
			advanced := false
			for int(cursor) < len(targets) {
				next := targets[cursor]
				cursor++
				var seen bool
				if tree != nil {
					// With the BRT, visited notifications for this node were
					// queued by previously visited neighbours; extract them
					// lazily and fall back to the visited array.
					if _, err := tree.ExtractAll(node); err != nil {
						return err
					}
				}
				seen, err = isVisited(next)
				if err != nil {
					return err
				}
				if seen {
					continue
				}
				if err := stack.setUint32((stackLen-1)*2+1, cursor); err != nil {
					return err
				}
				if err := markVisited(next); err != nil {
					return err
				}
				if tree != nil {
					if err := tree.Insert(next, node); err != nil {
						return err
					}
				}
				if labelWriter != nil {
					if err := labelWriter.Write(record.Label{Node: next, SCC: root}); err != nil {
						return err
					}
				}
				if err := push(next); err != nil {
					return err
				}
				advanced = true
				break
			}
			if advanced {
				continue
			}
			// Node finished.
			if post != nil {
				if err := post.Write(node); err != nil {
					return err
				}
			}
			stackLen--
		}
	}
	if post != nil {
		return post.Close()
	}
	return nil
}

// reverseOrder writes the node file at inPath in reverse record order to
// outPath, reading it block by block from the end.
func (s *dfsState) reverseOrder(inPath, outPath string) error {
	r, err := recio.NewReader(inPath, record.NodeCodec{}, s.cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	w, err := recio.NewWriter(outPath, record.NodeCodec{}, s.cfg)
	if err != nil {
		return err
	}
	total, err := r.Count()
	if err != nil {
		w.Close()
		return err
	}
	perBlock := int64(s.cfg.BlockSize / 4)
	if perBlock < 1 {
		perBlock = 1
	}
	for blockStart := ((total - 1) / perBlock) * perBlock; blockStart >= 0 && total > 0; blockStart -= perBlock {
		if err := r.SeekTo(blockStart); err != nil {
			w.Close()
			return err
		}
		count := perBlock
		if blockStart+count > total {
			count = total - blockStart
		}
		chunk := make([]record.NodeID, 0, count)
		for i := int64(0); i < count; i++ {
			n, err := r.Read()
			if err != nil {
				w.Close()
				return err
			}
			chunk = append(chunk, n)
		}
		for i := len(chunk) - 1; i >= 0; i-- {
			if err := w.Write(chunk[i]); err != nil {
				w.Close()
				return err
			}
		}
		if blockStart == 0 {
			break
		}
	}
	return w.Close()
}

// adjacency provides per-node out-neighbour lookups over an edge file sorted
// by source, using binary search: every lookup costs O(log(|E|/B)) random
// block reads, the cost profile the paper ascribes to external DFS.
type adjacency struct {
	r     *recio.Reader[record.Edge]
	count int64
}

func newAdjacency(path string, cfg iomodel.Config) (*adjacency, error) {
	r, err := recio.NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		return nil, err
	}
	count, err := r.Count()
	if err != nil {
		r.Close()
		return nil, err
	}
	return &adjacency{r: r, count: count}, nil
}

func (a *adjacency) close() error { return a.r.Close() }

// neighbors returns the out-neighbours of node u.
func (a *adjacency) neighbors(u record.NodeID) ([]record.NodeID, error) {
	// Binary search for the first edge with source >= u.
	lo, hi := int64(0), a.count
	for lo < hi {
		mid := (lo + hi) / 2
		if err := a.r.SeekTo(mid); err != nil {
			return nil, err
		}
		e, err := a.r.Read()
		if err != nil {
			return nil, err
		}
		if e.U < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var out []record.NodeID
	if lo >= a.count {
		return nil, nil
	}
	if err := a.r.SeekTo(lo); err != nil {
		return nil, err
	}
	for i := lo; i < a.count; i++ {
		e, err := a.r.Read()
		if err != nil {
			return nil, err
		}
		if e.U != u {
			break
		}
		out = append(out, e.V)
	}
	return out, nil
}

// nextNode reads the next node id from a node-file reader.
func nextNode(r *recio.Reader[record.NodeID]) (record.NodeID, bool, error) {
	n, err := r.Read()
	if err == io.EOF {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return n, true, nil
}

// maxNodeID returns the largest node id in a sorted node file with one seek
// to the last record.
func maxNodeID(nodePath string, cfg iomodel.Config) (record.NodeID, error) {
	r, err := recio.NewReader(nodePath, record.NodeCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	total, err := r.Count()
	if err != nil || total == 0 {
		return 0, err
	}
	if err := r.SeekTo(total - 1); err != nil {
		return 0, err
	}
	return r.Read()
}

// countDistinctSCCs counts distinct SCC ids in a label file.
func countDistinctSCCs(path string, cfg iomodel.Config) (int64, error) {
	r, err := recio.NewReader(path, record.LabelCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	seen := map[record.SCCID]struct{}{}
	for {
		l, err := r.Read()
		if err != nil {
			break
		}
		seen[l.SCC] = struct{}{}
	}
	return int64(len(seen)), nil
}
