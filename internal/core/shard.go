// Sharded contraction: the pre-pass behind the engine's WithShards option.
// The input graph is partitioned by source-node range
// (edgefile.SplitByNodeRange), each shard's internal subgraph is solved by a
// full Ext-SCC run — every SCC of a subgraph is contained in an SCC of the
// whole graph, so collapsing shard-local components is always sound — and
// the shard solves run concurrently, one goroutine per shard.
// The per-shard labellings concatenate into a node→representative mapping
// through which condense.Build condenses the original graph; the (much
// smaller) condensed remainder is then finished by whichever algorithm the
// engine is configured with, and the two labellings compose into the final
// one (edgefile.ComposeLabels).
//
// The pre-pass preserves the SCC partition exactly, but not the identity of
// each component's representative: which member id names a component
// depends on contraction history, so a sharded run may pick different (still
// member-id) labels than the unsharded run.  Equivalence gates therefore
// compare partitions, not raw label bytes.
package core

import (
	"context"
	"fmt"
	"sync"

	"extscc/internal/blockio"
	"extscc/internal/condense"
	"extscc/internal/edgefile"
	"extscc/internal/iomodel"
)

// ShardStats summarises one shard's solve.
type ShardStats struct {
	// Index is the shard number in node-range order.
	Index int
	// NumNodes and NumEdges describe the shard's internal subgraph.
	NumNodes int64
	NumEdges int64
	// NumSCCs is the number of shard-local components the solve found.
	NumSCCs int64
	// Iterations is the number of contraction iterations the solve ran.
	Iterations int
	// SemiExternalScans is the number of edge scans of the solve's base
	// case.
	SemiExternalScans int
}

// ShardResult is the output of ContractShards.
type ShardResult struct {
	// Condensed is the graph left after collapsing every shard-local SCC:
	// its nodes are the representatives, its edges the de-duplicated,
	// self-loop-free images of the original edges, declared Sorted.
	Condensed edgefile.Graph
	// MappingPath maps every original node to its representative (label
	// records sorted by node id; representatives map to themselves).
	MappingPath string
	// NumCrossEdges is the number of original edges whose endpoints fell in
	// two different shards.
	NumCrossEdges int64
	// Shards holds per-shard statistics, in shard order.
	Shards []ShardStats
}

// Remove deletes the result's files from cfg's storage backend.
func (r *ShardResult) Remove(cfg iomodel.Config) error {
	if err := r.Condensed.Remove(cfg); err != nil {
		return err
	}
	return blockio.Remove(r.MappingPath, cfg)
}

// ContractShards partitions g into shards contiguous source-node ranges,
// solves every shard's internal subgraph concurrently with Ext-SCC under
// opts, and condenses g by the union of the shard-local components.  The
// shard files live beneath dir, and the sorts and the condense step write
// theirs beneath cfg.TempDir; the engine passes its run directory as both.
// Cancelling ctx stops the in-flight shard solves within one contraction
// step each.
//
// Memory: up to shards solves are in flight at once, each budgeted with the
// full cfg.Memory, so the transient footprint is shards × M.  This pre-pass
// is the only place a run computes concurrently.
func ContractShards(ctx context.Context, g edgefile.Graph, dir string, shards int, opts Options, cfg iomodel.Config) (*ShardResult, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if shards < 2 || int64(shards) > g.NumNodes {
		return nil, fmt.Errorf("core: ContractShards shards=%d outside [2, |V|=%d]", shards, g.NumNodes)
	}
	split, err := edgefile.SplitByNodeRange(ctx, g, dir, shards, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if !opts.KeepTemp {
			split.Remove(cfg)
		}
	}()

	// Solve every shard concurrently.  Progress callbacks are engine-facing
	// and single-goroutine by contract, so shard solves run silent.
	shardOpts := opts
	shardOpts.OnIteration = nil
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := ExtSCC(runCtx, split.Shards[i], dir, shardOpts, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("core: shard %d/%d solve: %w", i, shards, err)
				cancel() // stop sibling shards; ctx.Err() of the caller wins below
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	cleanupShardRuns := func() {
		for _, res := range results {
			if res != nil && !opts.KeepTemp {
				res.Cleanup()
			}
		}
	}
	if err := ctx.Err(); err != nil {
		cleanupShardRuns()
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			cleanupShardRuns()
			return nil, err
		}
	}

	out := &ShardResult{NumCrossEdges: split.NumCross, Shards: make([]ShardStats, shards)}
	labelPaths := make([]string, shards)
	for i, res := range results {
		labelPaths[i] = res.LabelPath
		out.Shards[i] = ShardStats{
			Index:             i,
			NumNodes:          split.Shards[i].NumNodes,
			NumEdges:          split.Shards[i].NumEdges,
			NumSCCs:           res.NumSCCs,
			Iterations:        len(res.Iterations),
			SemiExternalScans: res.SemiExternal.EdgeScans,
		}
	}

	// The shards cover disjoint ascending node ranges, so concatenating the
	// per-shard labellings in shard order yields the node-sorted mapping.
	out.MappingPath = blockio.TempFile(dir, "shard-mapping", cfg.Stats)
	n, err := edgefile.ConcatLabels(out.MappingPath, cfg, labelPaths...)
	cleanupShardRuns()
	if err != nil {
		return nil, err
	}
	if n != g.NumNodes {
		return nil, fmt.Errorf("core: shard mapping covers %d nodes, graph has %d", n, g.NumNodes)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Condense: map both endpoints of the original edge file through the
	// mapping, which covers every node, and keep exactly the representatives
	// as the node set.  Build hands the edges over sorted by source,
	// deduplicated and free of self-loops, so the remainder is declared
	// Sorted and its first contraction step reads it as E_out without a sort.
	edgePath := blockio.TempFile(dir, "condensed-edges", cfg.Stats)
	numEdges, err := condense.Build(ctx, g.EdgePath, out.MappingPath, edgePath, cfg)
	if err != nil {
		return nil, err
	}
	nodePath := blockio.TempFile(dir, "condensed-nodes", cfg.Stats)
	numNodes, err := edgefile.RepresentativeNodes(out.MappingPath, nodePath, cfg)
	if err != nil {
		blockio.Remove(edgePath, cfg)
		return nil, err
	}
	out.Condensed = edgefile.Graph{
		EdgePath: edgePath,
		NodePath: nodePath,
		NumNodes: numNodes,
		NumEdges: numEdges,
		Sorted:   true,
	}
	return out, nil
}
