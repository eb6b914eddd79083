package expansion

import (
	"context"
	"slices"
	"testing"

	"extscc/internal/contraction"
	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
)

func testConfig(t *testing.T) iomodel.Config {
	t.Helper()
	return iomodel.Config{BlockSize: 512, Memory: 32 * 1024, TempDir: t.TempDir(), Stats: &iomodel.Stats{}}
}

// contractThenExpand performs one contraction step, labels the contracted
// graph with in-memory Tarjan (standing in for the recursion), expands, and
// checks the result against Tarjan on the original graph.
func contractThenExpand(t *testing.T, edges []record.Edge, nodes []record.NodeID, optimized bool) Result {
	t.Helper()
	cfg := testConfig(t)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := contraction.Contract(context.Background(), g, cfg.TempDir, contraction.Options{Optimized: optimized}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Label the contracted graph exactly (its SCC partition equals the
	// original partition restricted to the kept nodes).
	keptNodes, err := recio.ReadAll(cres.Next.NodePath, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keptEdges, err := recio.ReadAll(cres.Next.EdgePath, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keptLabels := memgraph.FromEdges(keptEdges, keptNodes).Tarjan().Labels()
	keptPath := cfg.TempDir + "/kept-labels.bin"
	if err := recio.WriteSlice(keptPath, record.LabelCodec{}, cfg, keptLabels); err != nil {
		t.Fatal(err)
	}

	eres, err := Expand(Input{
		EdgePath:       g.EdgePath,
		RemovedPath:    cres.RemovedPath,
		KeptLabelsPath: keptPath,
	}, cfg.TempDir, cfg)
	if err != nil {
		t.Fatalf("Expand(optimized=%v): %v", optimized, err)
	}

	got, err := recio.ReadAll(eres.LabelPath, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// G_i's edge file is not read: the removed-step file carries E_del.
	bare, err := Expand(Input{RemovedPath: cres.RemovedPath, KeptLabelsPath: keptPath}, cfg.TempDir, cfg)
	if err != nil {
		t.Fatalf("Expand without EdgePath (optimized=%v): %v", optimized, err)
	}
	if gotBare, err := recio.ReadAll(bare.LabelPath, record.LabelCodec{}, cfg); err != nil || !slices.Equal(gotBare, got) {
		t.Fatalf("labels without EdgePath differ (optimized=%v, err=%v)", optimized, err)
	}
	want := memgraph.FromEdges(edges, nodes).Tarjan().Labels()
	if !memgraph.SameSCCPartition(got, want) {
		t.Fatalf("partition mismatch after expansion (optimized=%v)\ngot  %v\nwant %v", optimized, got, want)
	}
	if eres.NumLabels != g.NumNodes {
		t.Fatalf("expanded %d labels for %d nodes", eres.NumLabels, g.NumNodes)
	}
	if eres.RecoveredIntoExisting+eres.Singletons != cres.NumRemoved {
		t.Fatalf("recovered (%d) + singletons (%d) != removed (%d)",
			eres.RecoveredIntoExisting, eres.Singletons, cres.NumRemoved)
	}
	return eres
}

func TestExpandPaperExample(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	for _, optimized := range []bool{false, true} {
		contractThenExpand(t, edges, nodes, optimized)
	}
}

func TestExpandCycleRecoversMembers(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		res := contractThenExpand(t, graphgen.Cycle(40), nil, optimized)
		// Every removed node of a single big cycle belongs to the one SCC.
		if res.Singletons != 0 {
			t.Fatalf("cycle expansion produced %d singletons", res.Singletons)
		}
		if res.RecoveredIntoExisting == 0 {
			t.Fatal("no node was recovered into the cycle SCC")
		}
	}
}

func TestExpandDAGProducesSingletons(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		res := contractThenExpand(t, graphgen.DAGLayered(40, 100, 2), nil, optimized)
		// A DAG has only singleton SCCs, so no removed node can join one.
		if res.RecoveredIntoExisting != 0 {
			t.Fatalf("DAG expansion recovered %d nodes into larger SCCs", res.RecoveredIntoExisting)
		}
		if res.Singletons == 0 {
			t.Fatal("DAG expansion produced no singleton")
		}
	}
}

func TestExpandRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		edges := graphgen.Random(60, 180, seed)
		for _, optimized := range []bool{false, true} {
			contractThenExpand(t, edges, nil, optimized)
		}
	}
}

func TestExpandIsolatedNodes(t *testing.T) {
	nodes := make([]record.NodeID, 30)
	for i := range nodes {
		nodes[i] = record.NodeID(i)
	}
	// Nodes 20..29 are isolated.
	for _, optimized := range []bool{false, true} {
		contractThenExpand(t, graphgen.Cycle(20), nodes, optimized)
	}
}

func TestExpandUsesNoRandomIO(t *testing.T) {
	cfg := testConfig(t)
	edges := graphgen.Random(80, 240, 6)
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := contraction.Contract(context.Background(), g, cfg.TempDir, contraction.Options{Optimized: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keptNodes, _ := recio.ReadAll(cres.Next.NodePath, record.NodeCodec{}, cfg)
	keptEdges, _ := recio.ReadAll(cres.Next.EdgePath, record.EdgeCodec{}, cfg)
	keptLabels := memgraph.FromEdges(keptEdges, keptNodes).Tarjan().Labels()
	keptPath := cfg.TempDir + "/kept.bin"
	if err := recio.WriteSlice(keptPath, record.LabelCodec{}, cfg, keptLabels); err != nil {
		t.Fatal(err)
	}
	before := cfg.Stats.Snapshot()
	if _, err := Expand(Input{EdgePath: g.EdgePath, RemovedPath: cres.RemovedPath, KeptLabelsPath: keptPath}, cfg.TempDir, cfg); err != nil {
		t.Fatal(err)
	}
	if delta := cfg.Stats.Snapshot().Sub(before); delta.RandomIOs() != 0 {
		t.Fatalf("expansion performed %d random I/Os", delta.RandomIOs())
	}
}
