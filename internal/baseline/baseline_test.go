package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

func testConfig(t *testing.T) iomodel.Config {
	t.Helper()
	return iomodel.Config{BlockSize: 512, Memory: 16 * 1024, TempDir: t.TempDir(), Stats: &iomodel.Stats{}}
}

func buildGraph(t *testing.T, cfg iomodel.Config, edges []record.Edge, nodes []record.NodeID) edgefile.Graph {
	t.Helper()
	g, err := edgefile.WriteGraph(cfg.TempDir, edges, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkDFS(t *testing.T, edges []record.Edge, nodes []record.NodeID, useBRT bool) *DFSResult {
	t.Helper()
	cfg := testConfig(t)
	g := buildGraph(t, cfg, edges, nodes)
	res, err := DFSSCC(context.Background(), g, cfg.TempDir, DFSOptions{UseBRT: useBRT}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recio.ReadAll(res.LabelPath, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tarjan := memgraph.FromEdges(edges, nodes).Tarjan()
	if want := tarjan.Labels(); !memgraph.SameSCCPartition(got, want) {
		t.Fatalf("DFS-SCC partition mismatch (brt=%v)\ngot  %v\nwant %v", useBRT, got, want)
	}
	if res.NumSCCs != int64(tarjan.Count) {
		t.Fatalf("DFS-SCC NumSCCs = %d, Tarjan finds %d (brt=%v)", res.NumSCCs, tarjan.Count, useBRT)
	}
	return res
}

func TestDFSSCCPaperExample(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	res := checkDFS(t, edges, nodes, false)
	if res.NumSCCs != 5 {
		t.Fatalf("NumSCCs = %d, want 5", res.NumSCCs)
	}
}

func TestDFSSCCWithBRT(t *testing.T) {
	edges, nodes := graphgen.PaperExample()
	checkDFS(t, edges, nodes, true)
}

func TestDFSSCCStructuredGraphs(t *testing.T) {
	checkDFS(t, graphgen.Cycle(30), nil, false)
	checkDFS(t, graphgen.Path(30), nil, false)
	checkDFS(t, graphgen.Random(40, 120, 1), nil, false)
	checkDFS(t, graphgen.Cycle(15), []record.NodeID{90, 91}, false)
}

func TestDFSSCCGeneratesRandomIO(t *testing.T) {
	cfg := testConfig(t)
	g := buildGraph(t, cfg, graphgen.Random(60, 180, 3), nil)
	res, err := DFSSCC(context.Background(), g, cfg.TempDir, DFSOptions{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The central contrast with Ext-SCC: external DFS pays random I/Os.
	if res.IO.RandomIOs() == 0 {
		t.Fatal("expected DFS-SCC to perform random I/Os")
	}
}

func TestDFSSCCBudgetExceeded(t *testing.T) {
	cfg := testConfig(t)
	g := buildGraph(t, cfg, graphgen.Random(200, 800, 5), nil)
	if _, err := DFSSCC(context.Background(), g, cfg.TempDir, DFSOptions{MaxIOs: 10}, cfg); err != ErrBudgetExceeded {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
	deadlineCtx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := DFSSCC(deadlineCtx, g, cfg.TempDir, DFSOptions{}, cfg); err != context.DeadlineExceeded {
		t.Fatalf("expected context.DeadlineExceeded for the time cap, got %v", err)
	}
}

// TestDFSSCCLabelReadFaultSweep injects a read fault at every read of the
// label files (dfs-labels-raw and dfs-labels) that a DFS-SCC run makes,
// without retries: a transient fault, a permanent one that keeps firing,
// and under varint a flipped bit.  A faulted run must fail with a typed
// error or succeed with Tarjan's partition and SCC count, never report a
// count that a fault cut short.
func TestDFSSCCLabelReadFaultSweep(t *testing.T) {
	edges := graphgen.Random(200, 600, 11)
	want := memgraph.FromEdges(edges, nil).Tarjan()
	type flavor struct {
		mode  string
		count int64 // 0 keeps firing
	}
	for _, codec := range []string{"fixed", "varint"} {
		run := func(rule *storage.FaultRule) (*DFSResult, []record.Label, error) {
			t.Helper()
			mem := storage.NewMem()
			cfg := iomodel.Config{BlockSize: 256, Memory: 16 * 1024, TempDir: "/dfs", Codec: codec, Storage: mem, Stats: &iomodel.Stats{}}
			g := buildGraph(t, cfg, edges, nil)
			cfg.Storage = storage.NewFault(mem, storage.NewFaultPlan(rule))
			res, err := DFSSCC(context.Background(), g, cfg.TempDir, DFSOptions{}, cfg)
			if err != nil {
				return nil, nil, err
			}
			cfg.Storage = mem
			labels, err := recio.ReadAll(res.LabelPath, record.LabelCodec{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, labels, nil
		}
		// A rule that never fires counts the label-file reads.
		budget := &storage.FaultRule{Op: storage.OpRead, Path: "dfs-labels", N: math.MaxInt64}
		if _, _, err := run(budget); err != nil {
			t.Fatalf("%s: fault-free run failed: %v", codec, err)
		}
		reads := budget.Matches()
		if reads < 2 {
			t.Fatalf("%s: the run read its label files %d times; the sweep needs more", codec, reads)
		}
		flavors := []flavor{{storage.ModeTransient, 1}, {storage.ModePermanent, 0}}
		if codec == "varint" {
			flavors = append(flavors, flavor{storage.ModeCorrupt, 1})
		}
		failed := 0
		for n := int64(1); n <= reads; n++ {
			for _, fl := range flavors {
				res, labels, err := run(&storage.FaultRule{Op: storage.OpRead, Path: "dfs-labels", N: n, Count: fl.count, Mode: fl.mode, Seed: uint64(n)})
				tag := fmt.Sprintf("%s/%s@read%d", codec, fl.mode, n)
				if err != nil {
					failed++
					if !errors.Is(err, storage.ErrInjected) && !errors.Is(err, blockio.ErrCorrupt) {
						t.Errorf("%s: failed with an untyped error: %v", tag, err)
					}
					continue
				}
				if res.NumSCCs != int64(want.Count) || !memgraph.SameSCCPartition(labels, want.Labels()) {
					t.Errorf("%s: succeeded with %d SCCs, Tarjan finds %d (partition equal: %v)", tag, res.NumSCCs, want.Count, memgraph.SameSCCPartition(labels, want.Labels()))
				}
			}
		}
		if failed == 0 {
			t.Errorf("%s: no faulted run failed; the faults missed the label files", codec)
		}
	}
}

func TestEMSCCConvergesOnSmallCyclicGraph(t *testing.T) {
	cfg := testConfig(t)
	// Two disjoint cycles plus a bridge: partition-local SCCs are found as
	// long as a whole cycle fits in one partition.
	edges := append(graphgen.Cycle(20), record.Edge{U: 5, V: 30})
	for i := 30; i < 50; i++ {
		next := i + 1
		if next == 50 {
			next = 30
		}
		edges = append(edges, record.Edge{U: record.NodeID(i), V: record.NodeID(next)})
	}
	g := buildGraph(t, cfg, edges, nil)
	res, err := EMSCC(context.Background(), g, cfg.TempDir, EMOptions{PartitionEdges: 25}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("EM-SCC should converge on this workload")
	}
	got, err := recio.ReadAll(res.LabelPath, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := memgraph.FromEdges(edges, nil).Tarjan().Labels()
	if !memgraph.SameSCCPartition(got, want) {
		t.Fatal("EM-SCC labels do not match Tarjan")
	}
}

// TestEMSCCConvergesAcrossIterations runs EM-SCC where no SCC fits one
// partition of the input: K 2-cycles {4j, 4j+1} and {4j+2, 4j+3} come first
// in the file, then every forward link 4j+1 -> 4j+2, then every backward
// link 4j+3 -> 4j, so each 4-node SCC's two links lie K/2 edges apart, in
// different partitions.  The first pass contracts the 2-cycles; relabelled
// and sorted by source, each SCC's two links become adjacent and the second
// pass contracts them.  Every node appears in several partitions, so both
// passes relabel through a partial mapping, and the second composes with a
// cumulative mapping that is no longer the identity.  The partition must
// equal Tarjan's, under both codec families.
func TestEMSCCConvergesAcrossIterations(t *testing.T) {
	const k = 64 // 2-cycles; the partition holds 16 edges
	var edges []record.Edge
	for i := 0; i < k; i++ {
		a, b := record.NodeID(2*i), record.NodeID(2*i+1)
		edges = append(edges, record.Edge{U: a, V: b}, record.Edge{U: b, V: a})
	}
	for j := 0; j < k/2; j++ {
		edges = append(edges, record.Edge{U: record.NodeID(4*j + 1), V: record.NodeID(4*j + 2)})
	}
	for j := 0; j < k/2; j++ {
		edges = append(edges, record.Edge{U: record.NodeID(4*j + 3), V: record.NodeID(4 * j)})
	}
	want := memgraph.FromEdges(edges, nil).Tarjan()
	for _, codec := range []string{"fixed", "varint"} {
		cfg := testConfig(t)
		cfg.Codec = codec
		g := buildGraph(t, cfg, edges, nil)
		res, err := EMSCC(context.Background(), g, cfg.TempDir, EMOptions{PartitionEdges: 16}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations < 2 {
			t.Fatalf("%s: converged=%v after %d iterations, want convergence after at least 2", codec, res.Converged, res.Iterations)
		}
		got, err := recio.ReadAll(res.LabelPath, record.LabelCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !memgraph.SameSCCPartition(got, want.Labels()) || res.NumSCCs != int64(want.Count) {
			t.Fatalf("%s: EM-SCC found %d SCCs with labels %v, Tarjan %d", codec, res.NumSCCs, got, want.Count)
		}
		if kept, err := recio.ReadAll(g.EdgePath, record.EdgeCodec{}, cfg); err != nil || len(kept) != len(edges) {
			t.Fatalf("%s: the input edge file holds %d of %d edges after the run (err %v)", codec, len(kept), len(edges), err)
		}
	}
}

func TestEMSCCDoesNotConvergeOnDAG(t *testing.T) {
	cfg := testConfig(t)
	// Case-2 of Section III: a DAG larger than memory has no SCC to contract,
	// so EM-SCC cannot make progress.
	edges := graphgen.DAGLayered(500, 1500, 2)
	g := buildGraph(t, cfg, edges, nil)
	res, err := EMSCC(context.Background(), g, cfg.TempDir, EMOptions{PartitionEdges: 100, MaxIterations: 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("EM-SCC should not converge on an out-of-memory DAG")
	}
	if res.LabelPath != "" {
		t.Fatal("non-converged run should not report labels")
	}
}

func TestEMSCCOptionsValidate(t *testing.T) {
	if err := (EMOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (EMOptions{PartitionEdges: -1}).Validate(); err == nil {
		t.Fatal("expected an error for negative PartitionEdges")
	}
	if err := (EMOptions{MaxIterations: -1}).Validate(); err == nil {
		t.Fatal("expected an error for negative MaxIterations")
	}
}

func TestDiskArray(t *testing.T) {
	cfg := testConfig(t)
	arr, err := newDiskArray(cfg.TempDir, 4096, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer arr.close()
	for i := int64(0); i < 100; i++ {
		if err := arr.setUint32(i, uint32(i*7)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(99); i >= 0; i-- {
		v, err := arr.getUint32(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(i*7) {
			t.Fatalf("slot %d = %d, want %d", i, v, i*7)
		}
	}
	if err := arr.setByte(4095, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, err := arr.getByte(4095)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0xAB {
		t.Fatalf("byte = %x", b)
	}
	if cfg.Stats.Snapshot().RandomIOs() == 0 {
		t.Fatal("disk array misses should be charged as random I/Os")
	}
}
