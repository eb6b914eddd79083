package extsort_test

import (
	"context"
	"testing"

	"extscc/internal/condense"
	"extscc/internal/core"
	"extscc/internal/edgefile"
	"extscc/internal/extsort"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/storage"
)

// TestSortsHoldMemoryOneAtATime checks the one-sort-at-a-time rule on the
// operators that chain sorts: Ext-SCC and Ext-SCC-Op (contraction and
// expansion) and the condensation build.  At M = 8B nearly every sort spills
// into several runs and streams a merge of run files, so a stream that fed
// another sort's RunWriter would show up as a run created while a run is
// open for reading.
func TestSortsHoldMemoryOneAtATime(t *testing.T) {
	ctx := context.Background()
	for _, optimized := range []bool{false, true} {
		tracker := &extsort.OpenTracker{Backend: storage.NewMem()}
		cfg := iomodel.Config{BlockSize: 64, Memory: 8 * 64, TempDir: "/run", NodeBudget: 100, Storage: tracker, Stats: &iomodel.Stats{}}
		g, err := edgefile.WriteGraph(cfg.TempDir, graphgen.Random(300, 1200, 3), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.ExtSCC(ctx, g, cfg.TempDir, core.Options{Optimized: optimized}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Iterations) == 0 {
			t.Fatalf("optimized=%v: no contraction iteration; the check needs contraction and expansion", optimized)
		}
		if _, err := condense.Build(ctx, g.EdgePath, res.LabelPath, "/run/dag", cfg); err != nil {
			t.Fatal(err)
		}
		if sn := cfg.Stats.Snapshot(); sn.MergePasses == 0 {
			t.Fatalf("optimized=%v: no merge; the check needs streamed merges", optimized)
		}
		if n := tracker.RunsWhileOpen(); n != 0 {
			t.Errorf("optimized=%v: %d runs were formed while another sort's stream was open", optimized, n)
		}
		if n := tracker.Opened(); n != 0 {
			t.Errorf("optimized=%v: %d run readers left open", optimized, n)
		}
	}
}
