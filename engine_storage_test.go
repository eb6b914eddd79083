package extscc_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// mustCfgOn returns a validated default configuration pinned to the given
// storage backend.
func mustCfgOn(t *testing.T, b extscc.Storage) iomodel.Config {
	t.Helper()
	cfg := iomodel.DefaultConfig()
	cfg.Storage = b
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestMemStorageFullRun runs the engine fully in RAM and consumes the result
// through every public path (Stream, Labels, ExportLabels) without the run
// ever touching the local filesystem.
func TestMemStorageFullRun(t *testing.T) {
	mem := storage.NewMem()
	eng, err := extscc.New(
		extscc.WithStorage(mem),
		extscc.WithNodeBudget(20),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Cycle(100)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Storage != "mem" {
		t.Fatalf("Stats.Storage = %q, want \"mem\"", res.Stats.Storage)
	}
	if res.NumSCCs != 1 {
		t.Fatalf("NumSCCs = %d, want 1", res.NumSCCs)
	}
	count := 0
	for range res.Stream() {
		count++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("Stream yielded %d labels, want 100", count)
	}

	// Export within the store, close the run, and read the exported file
	// back through the backend.
	out := "/mem/exported.scc"
	if err := res.ExportLabels(out); err != nil {
		t.Fatal(err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	labels, err := recio.ReadAll(out, record.LabelCodec{}, mustCfgOn(t, mem))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 100 {
		t.Fatalf("exported label file has %d records, want 100", len(labels))
	}
	// The exported file is the only survivor of the run.
	if paths := mem.Paths(); len(paths) != 1 || paths[0] != out {
		t.Fatalf("store should hold only the exported file, has %v", paths)
	}
}

// TestMemStorageCancellationLeavesStoreEmpty mirrors the temp-file-cleanup
// cancellation tests on the in-memory backend: cancelling mid-contraction
// must leave the store without a single file.
func TestMemStorageCancellationLeavesStoreEmpty(t *testing.T) {
	mem := storage.NewMem()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iterations := 0
	eng, err := extscc.New(
		extscc.WithAlgorithm("ext-scc-op"),
		extscc.WithNodeBudget(8),
		extscc.WithStorage(mem),
		extscc.WithProgress(func(p extscc.Progress) {
			iterations++
			cancel()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(ctx, extscc.SliceSource(graphgen.Random(300, 900, 1)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if iterations != 1 {
		t.Fatalf("run continued for %d contraction iterations after cancellation", iterations)
	}
	if paths := mem.Paths(); len(paths) != 0 {
		t.Fatalf("cancelled run left %d files in the in-memory store: %v", len(paths), paths)
	}
}

// TestWithStorageNil rejects a nil backend at construction.
func TestWithStorageNil(t *testing.T) {
	if _, err := extscc.New(extscc.WithStorage(nil)); err == nil {
		t.Fatal("expected an error for WithStorage(nil)")
	}
}

// TestFileSourceMissingOnMem keeps the error contract across backends: a
// FileSource path that does not exist in the selected store fails cleanly.
func TestFileSourceMissingOnMem(t *testing.T) {
	eng, err := extscc.New(extscc.WithStorage(storage.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), extscc.FileSource(filepath.Join(t.TempDir(), "missing.edges"))); err == nil {
		t.Fatal("expected an error for a missing edge file")
	}
}

// canonicalPartition rewrites a labelling so every component is named by its
// minimum member.  Sharded and unsharded runs agree on the partition but not
// necessarily on which member id names each component (both always pick a
// member), so equivalence is compared in this canonical form.
func canonicalPartition(t *testing.T, labels []extscc.Label) []extscc.Label {
	t.Helper()
	min := make(map[extscc.NodeID]extscc.NodeID, len(labels))
	for _, l := range labels {
		if cur, ok := min[l.SCC]; !ok || l.Node < cur {
			min[l.SCC] = l.Node
		}
	}
	out := make([]extscc.Label, len(labels))
	for i, l := range labels {
		out[i] = extscc.Label{Node: l.Node, SCC: min[l.SCC]}
	}
	return out
}

// TestShardedEquivalence is the engine-level contract of WithShards: for
// every registered algorithm and both codec families, a run with three
// compute shards on one in-memory backend computes the identical SCC
// partition to the unsharded run.
func TestShardedEquivalence(t *testing.T) {
	edges := graphgen.Random(220, 660, 11)
	extra := []extscc.NodeID{500, 501} // isolated nodes exercise the node split

	type outcome struct {
		labels  []extscc.Label
		stats   extscc.Stats
		numSCCs int64
		err     error
	}
	run := func(t *testing.T, algo, codec string, shards int) outcome {
		t.Helper()
		eng, err := extscc.New(
			extscc.WithAlgorithm(algo),
			extscc.WithCodec(codec),
			extscc.WithNodeBudget(40),
			extscc.WithShards(shards),
			extscc.WithStorage(extscc.MemStorage()),
			extscc.WithTempDir(t.TempDir()),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), extscc.SliceSource(edges, extra...))
		if err != nil {
			return outcome{err: err}
		}
		defer res.Close()
		labels, err := res.Labels()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{labels: labels, stats: res.Stats, numSCCs: res.NumSCCs}
	}

	for _, algo := range extscc.Algorithms() {
		for _, codec := range extscc.Codecs() {
			t.Run(algo.Name()+"/"+codec, func(t *testing.T) {
				flat := run(t, algo.Name(), codec, 0)
				shard := run(t, algo.Name(), codec, 3)

				// em-scc may legitimately converge on the condensed
				// remainder while diverging on the full graph (or vice
				// versa): the pre-pass changes the input it iterates on.
				// Any other failure must not depend on sharding.
				if flat.err != nil || shard.err != nil {
					for mode, err := range map[string]error{"unsharded": flat.err, "sharded": shard.err} {
						if err != nil && !errors.Is(err, extscc.ErrDidNotConverge) {
							t.Fatalf("%s run failed: %v", mode, err)
						}
					}
					t.Skipf("skipping comparison: unsharded err=%v, sharded err=%v", flat.err, shard.err)
				}
				if flat.numSCCs != shard.numSCCs {
					t.Fatalf("SCC count differs: unsharded=%d sharded=%d", flat.numSCCs, shard.numSCCs)
				}
				want := canonicalPartition(t, flat.labels)
				got := canonicalPartition(t, shard.labels)
				if len(want) != len(got) {
					t.Fatalf("label count differs: unsharded=%d sharded=%d", len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("partition differs at %d: unsharded=%v sharded=%v", i, want[i], got[i])
					}
				}
				// Stats sanity: the sharded run is a real accounted
				// computation on the configured backend, not a bypass.
				if shard.stats.Storage != "mem" {
					t.Fatalf("Stats.Storage = %q, want \"mem\"", shard.stats.Storage)
				}
				if shard.stats.TotalIOs <= 0 || shard.stats.BytesWritten <= 0 {
					t.Fatalf("sharded run accounted no I/O: %+v", shard.stats)
				}
				// The pre-pass contracts, so a sharded run always reports
				// contraction iterations, whatever finishes the remainder.
				if shard.stats.ContractionIterations == 0 {
					t.Error("sharded run reported zero contraction iterations")
				}
			})
		}
	}
}

// TestShardOptionValidation pins the construction-time contract of
// WithShards.
func TestShardOptionValidation(t *testing.T) {
	if _, err := extscc.New(extscc.WithShards(-1)); err == nil {
		t.Fatal("expected an error for WithShards(-1)")
	}
	// 0 and 1 are valid and mean "unsharded".
	for _, n := range []int{0, 1} {
		eng, err := extscc.New(extscc.WithShards(n), extscc.WithStorage(extscc.MemStorage()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Cycle(30)))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumSCCs != 1 {
			t.Fatalf("WithShards(%d): NumSCCs = %d, want 1", n, res.NumSCCs)
		}
		res.Close()
	}
	// More shards than nodes silently runs unsharded rather than failing.
	eng, err := extscc.New(extscc.WithShards(64), extscc.WithStorage(extscc.MemStorage()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Cycle(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.NumSCCs != 1 {
		t.Fatalf("NumSCCs = %d, want 1", res.NumSCCs)
	}
}
