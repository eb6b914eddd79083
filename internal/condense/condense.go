// Package condense builds the condensation DAG of a labelled graph: every
// strongly connected component is contracted to a single node (identified by
// its SCC label) and the surviving inter-component edges are deduplicated.
// Reachability indexes over general directed graphs are built on this DAG —
// the paper's motivating downstream application — and the serving subsystem
// (internal/serve) materialises it once per ingested graph.
//
// Build is the engine's one edge-relabel operator: it maps both endpoints of
// every edge through a node-sorted node→representative file and drops the
// edges that fall inside one representative and the duplicates.  Besides the
// DAG it condenses the graph that the sharded pre-pass hands its remainder
// (core.ContractShards) and the graph that every EM-SCC iteration contracts
// (BuildPartial).  FromMemory condenses an in-memory edge list for examples
// and oracles and produces the identical DAG.
package condense

import (
	"context"
	"fmt"
	"io"
	"sort"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/extsort"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// DAG is an in-memory condensation DAG: adjacency over SCC labels.  The
// condensation of a graph whose nodes fit the semi-external threshold is far
// smaller than the graph itself, so holding it in memory is the common case;
// the on-disk edge file written by Build remains the source of truth for
// anything larger.
type DAG struct {
	// Succ maps an SCC label to its sorted, deduplicated successor labels.
	// Components without outgoing inter-component edges have no entry.
	Succ map[record.SCCID][]record.SCCID
	// Pred is the reverse adjacency, same representation.
	Pred map[record.SCCID][]record.SCCID
	// NumEdges is the number of distinct inter-component edges.
	NumEdges int64
}

// Reaches reports whether src reaches dst in the DAG by breadth-first
// search.  It answers the SCC-level reachability question exactly and is the
// oracle the 2-hop index (Index) is verified against; point queries at
// serving volume go through the index instead.
func (d *DAG) Reaches(src, dst record.SCCID) bool {
	if src == dst {
		return true
	}
	seen := map[record.SCCID]struct{}{src: {}}
	stack := []record.SCCID{src}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range d.Succ[c] {
			if n == dst {
				return true
			}
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				stack = append(stack, n)
			}
		}
	}
	return false
}

// Nodes returns the sorted set of SCC labels with at least one incident
// inter-component edge.  Components absent from the DAG reach exactly
// themselves.
func (d *DAG) Nodes() []record.SCCID {
	set := map[record.SCCID]struct{}{}
	for u := range d.Succ {
		set[u] = struct{}{}
	}
	for v := range d.Pred {
		set[v] = struct{}{}
	}
	out := make([]record.SCCID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// insertEdge adds u -> v to the adjacency maps, deferring sort/dedup.
func (d *DAG) insertEdge(u, v record.SCCID) {
	d.Succ[u] = append(d.Succ[u], v)
	d.Pred[v] = append(d.Pred[v], u)
}

// normalise sorts and deduplicates every adjacency list and recounts the
// edges.
func (d *DAG) normalise() {
	d.NumEdges = 0
	for u, ns := range d.Succ {
		d.Succ[u] = dedupSorted(ns)
		d.NumEdges += int64(len(d.Succ[u]))
	}
	for v, ns := range d.Pred {
		d.Pred[v] = dedupSorted(ns)
	}
}

func dedupSorted(ns []record.SCCID) []record.SCCID {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := ns[:0]
	for i, n := range ns {
		if i == 0 || n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// FromMemory condenses an in-memory edge list under the given labelling:
// every edge whose endpoints carry different labels becomes an edge between
// the two components.  Every endpoint must be labelled.
func FromMemory(labelOf map[record.NodeID]record.SCCID, edges []record.Edge) *DAG {
	d := &DAG{Succ: map[record.SCCID][]record.SCCID{}, Pred: map[record.SCCID][]record.SCCID{}}
	for _, e := range edges {
		cu, cv := labelOf[e.U], labelOf[e.V]
		if cu == cv {
			continue
		}
		d.insertEdge(cu, cv)
	}
	d.normalise()
	return d
}

// Build streams the graph's edge file against its label file and writes the
// condensation DAG's edge file at outPath: one Edge record per distinct
// inter-component edge (scc(u) -> scc(v), scc(u) != scc(v)), sorted by
// (U, V).  The label file must be sorted by node id (the layout the engine's
// Result.LabelPath guarantees) and must cover every edge endpoint; an
// endpoint without a label fails the build.
//
// The construction is the classic pair of sort-merge joins: sort the edges
// by source and merge against the labels to map u -> scc(u), re-sort by
// target and merge again to map v -> scc(v), then sort the component pairs
// and deduplicate on the final scan.  Each sort streams into its join or
// deduplication, and each join writes a file that the next sort reads.
// Everything runs through the external-sort substrate under cfg's memory
// budget, storage backend and codec, so the DAG build carries the same I/O
// accounting as the SCC computation itself.  Intermediate files live in
// cfg.TempDir and are removed as the build progresses.  The returned count is
// the number of DAG edges written.
func Build(ctx context.Context, edgePath, labelPath, outPath string, cfg iomodel.Config) (int64, error) {
	return build(ctx, edgePath, labelPath, outPath, false, cfg)
}

// BuildPartial is Build under a partial mapping: the file at mappingPath
// lists only the nodes that move, and a node it does not list keeps its own
// id.  EM-SCC relabels its edge file through it after every partition pass.
func BuildPartial(ctx context.Context, edgePath, mappingPath, outPath string, cfg iomodel.Config) (int64, error) {
	return build(ctx, edgePath, mappingPath, outPath, true, cfg)
}

func build(ctx context.Context, edgePath, labelPath, outPath string, partial bool, cfg iomodel.Config) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sortPath := func(path string, key func(record.Edge) record.Key) (*extsort.Stream[record.Edge], error) {
		return extsort.NewContext(ctx, record.EdgeCodec{}, key, cfg).SortPath(path)
	}

	// Pass 1: sort edges by source and replace U with its SCC label.
	byU, err := sortPath(edgePath, record.EdgeBySource)
	if err != nil {
		return 0, fmt.Errorf("condense: sort edges by source: %w", err)
	}
	mappedU := blockio.TempFile(cfg.TempDir, "condense-mapu", cfg.Stats)
	err = mapEndpoint(byU, labelPath, mappedU, partial, cfg,
		func(e record.Edge) record.NodeID { return e.U },
		func(e record.Edge, scc record.SCCID) (record.Edge, bool) {
			return record.Edge{U: scc, V: e.V}, true
		})
	byU.Close()
	if err != nil {
		blockio.Remove(mappedU, cfg)
		return 0, err
	}

	// Pass 2: sort by target and replace V with its SCC label, dropping
	// intra-component edges as soon as both labels are known.
	byV, err := sortPath(mappedU, record.EdgeByTarget)
	blockio.Remove(mappedU, cfg)
	if err != nil {
		return 0, fmt.Errorf("condense: sort edges by target: %w", err)
	}
	mappedV := blockio.TempFile(cfg.TempDir, "condense-mapv", cfg.Stats)
	err = mapEndpoint(byV, labelPath, mappedV, partial, cfg,
		func(e record.Edge) record.NodeID { return e.V },
		func(e record.Edge, scc record.SCCID) (record.Edge, bool) {
			if e.U == scc {
				return record.Edge{}, false // intra-component edge
			}
			return record.Edge{U: e.U, V: scc}, true
		})
	byV.Close()
	if err != nil {
		blockio.Remove(mappedV, cfg)
		return 0, err
	}

	// Pass 3: sort the component pairs and deduplicate into the output.
	pairs, err := sortPath(mappedV, record.EdgeBySource)
	blockio.Remove(mappedV, cfg)
	if err != nil {
		return 0, fmt.Errorf("condense: sort component pairs: %w", err)
	}
	n, err := edgefile.DedupeEdges(pairs, outPath, false, cfg)
	pairs.Close()
	if err != nil {
		blockio.Remove(outPath, cfg)
		return 0, err
	}
	return n, nil
}

// mapEndpoint merge-joins an edge stream sorted by the chosen endpoint with
// the node-sorted label file, rewriting each edge through rewrite (which may
// drop it) into outPath.  An endpoint the label file does not list keeps its
// own id when partial is set and fails the join otherwise.
func mapEndpoint(edges recio.Iterator[record.Edge], labelPath, outPath string, partial bool, cfg iomodel.Config,
	key func(record.Edge) record.NodeID,
	rewrite func(record.Edge, record.SCCID) (record.Edge, bool)) error {
	lr, err := recio.NewReader(labelPath, record.LabelCodec{}, cfg)
	if err != nil {
		return err
	}
	defer lr.Close()
	labels := recio.NewPeekable(lr.Iter())
	_, err = recio.WriteFile(outPath, record.EdgeCodec{}, cfg, func(w recio.Sink[record.Edge]) error {
		for {
			e, ok, err := edges.Next()
			if err != nil || !ok {
				return err
			}
			k := key(e)
			for labels.Valid() && labels.Peek().Node < k {
				labels.Pop()
			}
			if err := labels.Err(); err != nil {
				return err
			}
			scc := k
			if labels.Valid() && labels.Peek().Node == k {
				scc = labels.Peek().SCC
			} else if !partial {
				return fmt.Errorf("condense: edge endpoint %d has no label in %s", k, labelPath)
			}
			if out, keep := rewrite(e, scc); keep {
				if err := w.Write(out); err != nil {
					return err
				}
			}
		}
	})
	return err
}

// Load reads a DAG edge file written by Build into memory.
func Load(path string, cfg iomodel.Config) (*DAG, error) {
	d := &DAG{Succ: map[record.SCCID][]record.SCCID{}, Pred: map[record.SCCID][]record.SCCID{}}
	r, err := recio.NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		d.insertEdge(e.U, e.V)
	}
	d.normalise()
	return d, nil
}
