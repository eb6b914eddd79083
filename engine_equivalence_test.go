package extscc

// White-box cross-backend equivalence test: it reaches into the Result's
// run configuration to compare the *complete* iomodel.Stats snapshot —
// reads, writes, the sequential/random split, files created, sort runs,
// merge passes, record counts — not just the public Stats summary.

import (
	"context"
	"errors"
	"testing"

	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
)

// TestCrossBackendEquivalence is the engine-level contract of WithStorage:
// for every registered algorithm on a quick workload, the in-memory backend
// and the OS backend produce identical SCC labellings and identical
// iomodel.Stats counters.
func TestCrossBackendEquivalence(t *testing.T) {
	edges := graphgen.Random(220, 660, 11)
	extra := []NodeID{500, 501} // isolated nodes exercise the node-file path

	type outcome struct {
		labels  []Label
		snap    iomodel.Snapshot
		numSCCs int64
		err     error
	}
	runOn := func(t *testing.T, algo string, backend Storage) outcome {
		t.Helper()
		eng, err := New(
			WithAlgorithm(algo),
			WithNodeBudget(40), // forces several contraction iterations
			WithStorage(backend),
			WithTempDir(t.TempDir()),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), SliceSource(edges, extra...))
		if err != nil {
			return outcome{err: err}
		}
		defer res.Close()
		labels, err := res.Labels()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{labels: labels, snap: res.cfg.Stats.Snapshot(), numSCCs: res.NumSCCs}
	}

	for _, algo := range Algorithms() {
		t.Run(algo.Name(), func(t *testing.T) {
			onOS := runOn(t, algo.Name(), OSStorage())
			onMem := runOn(t, algo.Name(), MemStorage())

			if (onOS.err == nil) != (onMem.err == nil) {
				t.Fatalf("backends disagree on the outcome: os err=%v, mem err=%v", onOS.err, onMem.err)
			}
			if onOS.err != nil {
				// Both failed (e.g. em-scc not converging); the failure
				// mode must be the same one.
				if errors.Is(onOS.err, ErrDidNotConverge) != errors.Is(onMem.err, ErrDidNotConverge) {
					t.Fatalf("backends failed differently: os err=%v, mem err=%v", onOS.err, onMem.err)
				}
				return
			}
			if onOS.numSCCs != onMem.numSCCs {
				t.Fatalf("SCC count differs: os=%d mem=%d", onOS.numSCCs, onMem.numSCCs)
			}
			if len(onOS.labels) != len(onMem.labels) {
				t.Fatalf("label count differs: os=%d mem=%d", len(onOS.labels), len(onMem.labels))
			}
			for i := range onOS.labels {
				if onOS.labels[i] != onMem.labels[i] {
					t.Fatalf("label %d differs: os=%v mem=%v", i, onOS.labels[i], onMem.labels[i])
				}
			}
			if onOS.snap != onMem.snap {
				t.Fatalf("accounted I/O differs between backends:\n  os:  %+v\n  mem: %+v", onOS.snap, onMem.snap)
			}
		})
	}
}
