package extscc

import (
	"context"
	"fmt"

	"extscc/internal/blockio"
	"extscc/internal/core"
	"extscc/internal/edgefile"
)

// runSharded executes the sharded contraction pre-pass (see WithShards) and
// then the engine's algorithm on the condensed remainder.  The pre-pass uses
// Ext-SCC regardless of algo — it is the contraction machinery, not the
// algorithm under measurement — matching algo's optimisation level for the
// core algorithms.  Progress callbacks fire only for the condensed run: the
// shard solves are concurrent, and the callback contract is one goroutine.
func runSharded(ctx context.Context, algo Algorithm, t *Task, k int) (AlgoResult, error) {
	opts := core.Options{Optimized: algo.Name() != "ext-scc", KeepTemp: t.KeepTemp}
	sres, err := core.ContractShards(ctx, t.graph, t.Dir, k, opts, t.cfg)
	if err != nil {
		return AlgoResult{}, err
	}
	shardIters, shardScans := 0, 0
	for _, s := range sres.Shards {
		shardIters += s.Iterations
		shardScans += s.SemiExternalScans
	}

	// Finish the condensed remainder with the configured algorithm.  The
	// condensed task shares the run directory and configuration; only the
	// graph differs.
	ct := *t
	ct.Graph = GraphFiles{
		EdgePath: sres.Condensed.EdgePath,
		NodePath: sres.Condensed.NodePath,
		NumNodes: sres.Condensed.NumNodes,
		NumEdges: sres.Condensed.NumEdges,
	}
	ct.graph = sres.Condensed
	ares, err := algo.Run(ctx, &ct)
	if err != nil {
		if !t.KeepTemp {
			sres.Remove(t.cfg)
		}
		return AlgoResult{}, err
	}

	// Compose: every original node takes the final label of its shard-phase
	// representative.
	out := blockio.TempFile(t.Dir, "sharded-labels", t.cfg.Stats)
	n, err := edgefile.ComposeLabels(ctx, sres.MappingPath, ares.LabelPath, out, false, t.cfg)
	if err == nil && n != t.graph.NumNodes {
		err = fmt.Errorf("extscc: sharded run labelled %d of %d nodes", n, t.graph.NumNodes)
	}
	if !t.KeepTemp {
		sres.Remove(t.cfg)
		blockio.Remove(ares.LabelPath, t.cfg)
	}
	if err != nil {
		return AlgoResult{}, err
	}
	return AlgoResult{
		LabelPath:         out,
		NumSCCs:           ares.NumSCCs,
		Iterations:        shardIters + ares.Iterations,
		SemiExternalScans: shardScans + ares.SemiExternalScans,
	}, nil
}
