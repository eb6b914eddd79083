package extscc_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
	"extscc/internal/storage"
)

// faultRunResult is the observable outcome of one faulted engine run.
type faultRunResult struct {
	labels map[extscc.NodeID]uint32
	stats  extscc.Stats
	err    error
	ops    int64 // fault-able backend ops the run performed
}

// runFaulted executes the sweep workload once against inner wrapped in plan.
// Workers is pinned to 1 so the backend op sequence is deterministic, which
// is what makes "inject at the k-th op" reproducible.
func runFaulted(t *testing.T, inner extscc.Storage, tempDir, codec string, retries int, plan *storage.FaultPlan) faultRunResult {
	t.Helper()
	fb := storage.NewFault(inner, plan)
	eng, err := extscc.New(
		extscc.WithAlgorithm("ext-scc-op"),
		extscc.WithStorage(fb),
		extscc.WithTempDir(tempDir),
		extscc.WithWorkers(1),
		extscc.WithNodeBudget(40),
		extscc.WithCodec(codec),
		extscc.WithRetry(retries),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Random(150, 450, 7)))
	out := faultRunResult{err: err, ops: plan.TotalOps()}
	if err != nil {
		return out
	}
	defer res.Close()
	out.stats = res.Stats
	out.labels, err = res.LabelMap()
	if err != nil {
		t.Fatalf("read labels of a successful run: %v", err)
	}
	return out
}

// assertIOEqual compares every backend- and fault-independent Stats counter.
func assertIOEqual(t *testing.T, tag string, got, want extscc.Stats) {
	t.Helper()
	type ioCounters struct {
		total, read, write, random, bytesR, bytesW, files int64
	}
	pick := func(s extscc.Stats) ioCounters {
		return ioCounters{s.TotalIOs, s.ReadIOs, s.WriteIOs, s.RandomIOs, s.BytesRead, s.BytesWritten, s.FilesCreated}
	}
	if pick(got) != pick(want) {
		t.Errorf("%s: I/O counters diverged: got %+v, want %+v", tag, pick(got), pick(want))
	}
}

// assertClean asserts the backend holds no files after a run ended (the
// crash-clean invariant: failed runs remove everything, successful runs
// remove everything on Close).
func assertClean(t *testing.T, tag string, inner extscc.Storage, tempDir string) {
	t.Helper()
	if m, ok := inner.(*storage.MemBackend); ok {
		if n := m.Len(); n != 0 {
			t.Errorf("%s: run left %d files in the in-memory store: %v", tag, n, m.Paths())
		}
		return
	}
	if s, ok := inner.(*storage.ShardedBackend); ok {
		// Crash-clean must hold on every child volume, not just in union.
		for i, c := range s.Children() {
			if m, ok := c.(*storage.MemBackend); ok && m.Len() != 0 {
				t.Errorf("%s: run left %d files on shard child %d: %v", tag, m.Len(), i, m.Paths())
			}
		}
		return
	}
	left, err := inner.List(tempDir)
	if err != nil {
		t.Fatalf("%s: list %s: %v", tag, tempDir, err)
	}
	if len(left) != 0 {
		t.Errorf("%s: run left files under %s: %v", tag, tempDir, left)
	}
}

// sweepFlavor is one fault configuration applied during the sweep.
type sweepFlavor struct {
	name    string
	mode    string
	retries int
}

// TestEngineFaultSweep is the systematic robustness gate: run the workload
// once with an empty fault plan to measure its backend-op budget, then re-run
// it injecting a fault at sampled op positions across fault flavors, and
// assert every run either succeeds with a labelling and I/O counters
// identical to the fault-free run, or fails with a typed error (ErrInjected /
// ErrCorrupt) — and in both cases leaves the backend without a single file.
// The sweep covers every storage backend and every codec family.
func TestEngineFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is a multi-run workload; skipped with -short")
	}
	for _, backendName := range []string{"mem", "os", "shard"} {
		for _, codec := range []string{extscc.CodecFixed, extscc.CodecVarint, extscc.CodecCompress} {
			t.Run(backendName+"/"+codec, func(t *testing.T) {
				newBackend := func() (extscc.Storage, string) {
					switch backendName {
					case "mem":
						m := storage.NewMem()
						return m, m.TempPath()
					case "shard":
						s := storage.NewSharded(storage.NewMem(), storage.NewMem())
						return s, s.TempPath()
					}
					return storage.OS(), t.TempDir()
				}

				// Baseline: an empty plan counts the op budget and pins the
				// fault-free labelling; the wrapper itself must be invisible.
				inner, tempDir := newBackend()
				base := runFaulted(t, inner, tempDir, codec, 0, storage.NewFaultPlan())
				if base.err != nil {
					t.Fatalf("fault-free baseline failed: %v", base.err)
				}
				assertClean(t, "baseline", inner, tempDir)
				if base.ops == 0 {
					t.Fatal("baseline run performed no backend ops")
				}
				if base.stats.Retries != 0 {
					t.Fatalf("fault-free run reports %d retries", base.stats.Retries)
				}

				flavors := []sweepFlavor{
					{"transient-retry", storage.ModeTransient, 2},
					{"transient-bare", storage.ModeTransient, 0},
					{"permanent", storage.ModePermanent, 2},
					{"torn-retry", storage.ModeTorn, 2},
				}
				if codec != extscc.CodecFixed {
					// Bit flips are only guaranteed to be *detected* under the
					// CRC-carrying framed layouts (varint, compress); the
					// fixed layout documents no integrity check, so corruption
					// there is out of scope.
					flavors = append(flavors, sweepFlavor{"corrupt", storage.ModeCorrupt, 2})
				}
				samples := 8
				if backendName == "os" {
					samples = 4 // disk runs are slower; the mem leg covers density
				}

				recovered, failed := 0, 0
				for i := 0; i < samples; i++ {
					k := 1 + int64(i)*(base.ops-1)/int64(samples-1)
					fl := flavors[i%len(flavors)]
					tag := fmt.Sprintf("%s@op%d", fl.name, k)
					inner, tempDir := newBackend()
					plan := storage.NewFaultPlan(&storage.FaultRule{
						Op: storage.OpAny, N: k, Count: 1, Mode: fl.mode, Seed: uint64(k),
					})
					got := runFaulted(t, inner, tempDir, codec, fl.retries, plan)
					if got.err == nil {
						// Success is only acceptable when it is *exactly* the
						// fault-free run: same partition, same accounted I/O.
						if fmt.Sprint(got.labels) != fmt.Sprint(base.labels) {
							t.Errorf("%s: succeeded with a different labelling", tag)
						}
						assertIOEqual(t, tag, got.stats, base.stats)
						if got.stats.Retries > 0 {
							recovered++
						}
					} else {
						failed++
						if !errors.Is(got.err, storage.ErrInjected) && !errors.Is(got.err, extscc.ErrCorrupt) {
							t.Errorf("%s: failed with an untyped error: %v", tag, got.err)
						}
						if fl.retries == 0 && errors.Is(got.err, storage.ErrInjected) && !storage.IsTransient(got.err) && fl.mode == storage.ModeTransient {
							t.Errorf("%s: transient fault surfaced as non-transient: %v", tag, got.err)
						}
					}
					assertClean(t, tag, inner, tempDir)
				}

				// The sampled positions select OpAny indices, so a short leg
				// may never land its torn flavor on an actual Write (the last
				// sample is a close/remove).  Pin one torn fault directly on
				// the write path so every backend x codec leg exercises the
				// truncate-and-rewrite recovery against its real Write
				// semantics.
				{
					tag := "torn-write-pinned"
					inner, tempDir := newBackend()
					plan := storage.NewFaultPlan(&storage.FaultRule{
						Op: storage.OpWrite, N: 2, Count: 1, Mode: storage.ModeTorn,
					})
					got := runFaulted(t, inner, tempDir, codec, 2, plan)
					if got.err != nil {
						t.Errorf("%s: torn write with retries failed: %v", tag, got.err)
					} else {
						if fmt.Sprint(got.labels) != fmt.Sprint(base.labels) {
							t.Errorf("%s: succeeded with a different labelling", tag)
						}
						assertIOEqual(t, tag, got.stats, base.stats)
						if got.stats.Retries == 0 {
							t.Errorf("%s: recovery reports zero retries", tag)
						}
					}
					assertClean(t, tag, inner, tempDir)
				}
				t.Logf("%s/%s: %d ops, %d sampled faults: %d recovered by retry, %d failed clean",
					backendName, codec, base.ops, samples, recovered, failed)
			})
		}
	}
}

// TestEngineRetryRecoversTransientFault pins the recovery path end to end: a
// transient fault on a block write fails the run at WithRetry(0) and is
// absorbed — with identical output and I/O counters — at WithRetry(2).
func TestEngineRetryRecoversTransientFault(t *testing.T) {
	mem := storage.NewMem()
	base := runFaulted(t, mem, mem.TempPath(), extscc.CodecFixed, 0, storage.NewFaultPlan())
	if base.err != nil {
		t.Fatal(base.err)
	}

	newPlan := func() *storage.FaultPlan {
		return storage.NewFaultPlan(&storage.FaultRule{
			Op: storage.OpWrite, N: 3, Count: 1, Mode: storage.ModeTransient,
		})
	}

	bare := runFaulted(t, storage.NewMem(), "/mem/tmp", extscc.CodecFixed, 0, newPlan())
	if bare.err == nil {
		t.Fatal("transient write fault at WithRetry(0) did not fail the run")
	}
	if !errors.Is(bare.err, storage.ErrInjected) || !storage.IsTransient(bare.err) {
		t.Fatalf("fault surfaced as %v, want an injected transient error", bare.err)
	}

	mem2 := storage.NewMem()
	retried := runFaulted(t, mem2, mem2.TempPath(), extscc.CodecFixed, 2, newPlan())
	if retried.err != nil {
		t.Fatalf("transient write fault at WithRetry(2) still failed: %v", retried.err)
	}
	if retried.stats.Retries == 0 {
		t.Fatal("recovered run reports zero retries")
	}
	if fmt.Sprint(retried.labels) != fmt.Sprint(base.labels) {
		t.Fatal("recovered run produced a different labelling")
	}
	assertIOEqual(t, "retried", retried.stats, base.stats)
	assertClean(t, "retried", mem2, mem2.TempPath())
}

// TestEngineTornWriteRecovery pins the torn-page path: a torn write persists
// half a block and fails; with retries the writer truncates the torn prefix
// back and re-writes, and the final file bytes — and therefore the labelling
// — are identical to the clean run.  It runs on both backends: the mem
// backend's Write genuinely appends, while the os backend's Write must not
// be fooled by the stale seek offset a torn write leaves behind (writing
// there would punch a zero-filled hole into the file).
func TestEngineTornWriteRecovery(t *testing.T) {
	for _, backendName := range []string{"mem", "os"} {
		t.Run(backendName, func(t *testing.T) {
			newBackend := func() (extscc.Storage, string) {
				if backendName == "mem" {
					m := storage.NewMem()
					return m, m.TempPath()
				}
				return storage.OS(), t.TempDir()
			}
			inner, tempDir := newBackend()
			base := runFaulted(t, inner, tempDir, extscc.CodecVarint, 0, storage.NewFaultPlan())
			if base.err != nil {
				t.Fatal(base.err)
			}
			inner2, tempDir2 := newBackend()
			plan := storage.NewFaultPlan(&storage.FaultRule{
				Op: storage.OpWrite, N: 2, Count: 1, Mode: storage.ModeTorn,
			})
			got := runFaulted(t, inner2, tempDir2, extscc.CodecVarint, 2, plan)
			if got.err != nil {
				t.Fatalf("torn write with retries failed: %v", got.err)
			}
			if got.stats.Retries == 0 {
				t.Fatal("torn-write recovery reports zero retries")
			}
			if fmt.Sprint(got.labels) != fmt.Sprint(base.labels) {
				t.Fatal("torn-write recovery produced a different labelling")
			}
			assertIOEqual(t, "torn", got.stats, base.stats)
			assertClean(t, "torn", inner2, tempDir2)
		})
	}
}

// TestEngineCorruptReadFailsTyped pins the integrity path end to end under
// the framed codec: a bit flipped in the bytes a read returns must fail the
// run with ErrCorrupt — never converge to a different SCC partition — and
// leave no files behind.
func TestEngineCorruptReadFailsTyped(t *testing.T) {
	mem := storage.NewMem()
	plan := storage.NewFaultPlan(&storage.FaultRule{
		Op: storage.OpRead, N: 4, Count: 1, Mode: storage.ModeCorrupt, Seed: 99,
	})
	got := runFaulted(t, mem, mem.TempPath(), extscc.CodecVarint, 2, plan)
	if got.err == nil {
		t.Fatal("corrupted read did not fail the run")
	}
	if !errors.Is(got.err, extscc.ErrCorrupt) {
		t.Fatalf("corrupted read failed with %v, want ErrCorrupt", got.err)
	}
	if storage.IsTransient(got.err) {
		t.Fatal("corruption misclassified as transient (it must never be retried)")
	}
	assertClean(t, "corrupt", mem, mem.TempPath())
}

// TestFaultSpecDrivesDefaultBackend pins the EXTSCC_FAULT plumbing that CI's
// fault-sweep job uses: a spec resolved through storage.ByName wraps the
// chosen backend, and the label codec types still round trip beneath it.
func TestFaultSpecDrivesDefaultBackend(t *testing.T) {
	plan, err := storage.ParseFaultSpec("op=write,n=2,count=1,mode=transient")
	if err != nil {
		t.Fatal(err)
	}
	got := runFaulted(t, storage.NewMem(), "/mem/tmp", extscc.CodecFixed, 2, plan)
	if got.err != nil {
		t.Fatalf("spec-driven transient fault with retries failed the run: %v", got.err)
	}
	if got.stats.Retries == 0 {
		t.Fatal("spec-driven fault fired no retries")
	}
}
