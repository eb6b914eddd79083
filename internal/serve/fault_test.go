package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/storage"
)

// faultedBuild is the observable outcome of one New under a fault plan.
type faultedBuild struct {
	err      error
	io       iomodel.Snapshot // the build's I/O counters, Retries zeroed
	dagEdges int64
	reach    []string // /reach answers for a fixed set of pairs
	left     int      // files left on the store after Close or the failure
}

// buildFaulted runs New on a small graph over a mem store wrapped in plan,
// queries /reach for a fixed set of pairs, closes the server and counts what
// is left on the store.  M = 8 KiB and B = 256 make the DAG build's sorts
// spill into several runs, so its streams merge run files.
func buildFaulted(t *testing.T, retries int, plan *storage.FaultPlan) faultedBuild {
	t.Helper()
	mem := storage.NewMem()
	s, err := New(context.Background(), Options{
		Source:    extscc.SliceSource(graphgen.Random(300, 2400, 17)),
		Storage:   storage.NewFault(mem, plan),
		Memory:    8 * 1024,
		BlockSize: 256,
		Retries:   retries,
	})
	if err != nil {
		return faultedBuild{err: err, left: mem.Len()}
	}
	out := faultedBuild{io: s.buildIO, dagEdges: s.dagEdges}
	out.io.Retries = 0
	for u := 0; u < 300; u += 23 {
		for v := 0; v < 300; v += 37 {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/reach/%d/%d", u, v), nil))
			body, _ := io.ReadAll(rec.Body)
			out.reach = append(out.reach, fmt.Sprintf("%d %s", rec.Code, body))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	out.left = mem.Len()
	return out
}

// TestNewFaultSweep extends the fault sweep to the serve build: faults land
// at sampled positions among the operations on the serve directory (the
// condensation DAG and the reachability index), and every build either
// succeeds exactly like the fault-free one (I/O counters, DAG edges and
// /reach answers) or fails with a typed error.  Either way the store ends
// empty.
func TestNewFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is a multi-run workload; skipped with -short")
	}
	// A rule that never fires counts the build's operations.
	budget := &storage.FaultRule{Path: "sccserve-", N: math.MaxInt64}
	base := buildFaulted(t, 0, storage.NewFaultPlan(budget))
	if base.err != nil {
		t.Fatalf("fault-free build failed: %v", base.err)
	}
	if base.left != 0 {
		t.Fatalf("fault-free build left %d files", base.left)
	}
	if base.dagEdges == 0 || base.io.MergePasses == 0 {
		t.Fatalf("fault-free build: %d DAG edges, %d merge passes; the sweep needs edges and merged runs", base.dagEdges, base.io.MergePasses)
	}
	ops := budget.Matches()
	flavors := []struct {
		mode    string
		retries int
	}{
		{storage.ModeTransient, 2},
		{storage.ModeTransient, 0},
		{storage.ModePermanent, 2},
		{storage.ModeTorn, 2},
	}
	const samples = 16
	recovered, failed := 0, 0
	for i := 0; i < samples; i++ {
		n := 1 + int64(i)*(ops-1)/(samples-1)
		fl := flavors[i%len(flavors)]
		tag := fmt.Sprintf("%s/retries=%d@op%d", fl.mode, fl.retries, n)
		got := buildFaulted(t, fl.retries, storage.NewFaultPlan(&storage.FaultRule{
			Path: "sccserve-", N: n, Count: 1, Mode: fl.mode, Seed: uint64(n),
		}))
		if got.err == nil {
			recovered++
			if got.io != base.io || got.dagEdges != base.dagEdges {
				t.Errorf("%s: succeeded with I/O %+v and %d DAG edges, want %+v and %d", tag, got.io, got.dagEdges, base.io, base.dagEdges)
			}
			if fmt.Sprint(got.reach) != fmt.Sprint(base.reach) {
				t.Errorf("%s: succeeded with different /reach answers", tag)
			}
		} else {
			failed++
			if !errors.Is(got.err, storage.ErrInjected) && !errors.Is(got.err, extscc.ErrCorrupt) {
				t.Errorf("%s: failed with an untyped error: %v", tag, got.err)
			}
		}
		if got.left != 0 {
			t.Errorf("%s: the store holds %d files after the build ended", tag, got.left)
		}
	}
	if recovered == 0 || failed == 0 {
		t.Errorf("%d builds recovered and %d failed; the sweep needs both outcomes", recovered, failed)
	}
	t.Logf("%d build ops, %d sampled faults: %d recovered, %d failed clean", ops, samples, recovered, failed)
}
