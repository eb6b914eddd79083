package extsort_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"extscc/internal/condense"
	"extscc/internal/contraction"
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

// cancelOnCreate cancels a context when a file whose path contains name is
// created, and notes how many sort files were open for reading then.
type cancelOnCreate struct {
	*extsort.OpenTracker
	name       string
	cancel     context.CancelFunc
	openAtHook int
}

func (b *cancelOnCreate) Create(path string) (storage.File, error) {
	if strings.Contains(path, b.name) && b.openAtHook < 0 {
		b.openAtHook = b.Opened()
		b.cancel()
	}
	return b.OpenTracker.Create(path)
}

// TestContractCancelInCoverScan cancels a contraction step from inside its
// cover scan, when the scan creates its candidate file: E_d's sort stream is
// open then, merging run files.  The step returns context.Canceled, closes
// every run reader, and removes every file it made; only the input graph's
// two files are left.
func TestContractCancelInCoverScan(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		mem := storage.NewMem()
		ctx, cancel := context.WithCancel(context.Background())
		hook := &cancelOnCreate{OpenTracker: &extsort.OpenTracker{Backend: mem}, name: "cover-raw", cancel: cancel, openAtHook: -1}
		cfg := iomodel.Config{BlockSize: 256, Memory: 8 * 256, TempDir: "/run", Storage: hook, Stats: &iomodel.Stats{}}
		g, err := edgefile.WriteGraph(cfg.TempDir, graphgen.Random(2000, 24000, 4), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = contraction.Contract(ctx, g, "/run/step", contraction.Options{Optimized: optimized}, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("optimized=%v: Contract returned %v, want context.Canceled", optimized, err)
		}
		if hook.openAtHook < 2 {
			t.Fatalf("optimized=%v: %d run readers open when the scan began; the check needs a streamed merge", optimized, hook.openAtHook)
		}
		if n := hook.Opened(); n != 0 {
			t.Errorf("optimized=%v: %d run readers left open", optimized, n)
		}
		if left := mem.Paths(); len(left) != 2 {
			t.Errorf("optimized=%v: the store holds %v; want only the input graph's two files", optimized, left)
		}
	}
}
