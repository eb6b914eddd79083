package extsort

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

func testConfig(t *testing.T, memory int64) iomodel.Config {
	t.Helper()
	return iomodel.Config{
		BlockSize: 64,
		Memory:    memory,
		TempDir:   t.TempDir(),
		Stats:     &iomodel.Stats{},
	}
}

func randomEdges(n int, rng *rand.Rand) []record.Edge {
	edges := make([]record.Edge, n)
	for i := range edges {
		edges[i] = record.Edge{U: rng.Uint32() % 1000, V: rng.Uint32() % 1000}
	}
	return edges
}

func sortAndVerify(t *testing.T, cfg iomodel.Config, edges []record.Edge) {
	t.Helper()
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	s := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg)
	if err := s.SortFile(in, out); err != nil {
		t.Fatal(err)
	}
	got, err := recio.ReadAll(out, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("output has %d records, want %d", len(got), len(edges))
	}
	want := slices.Clone(edges)
	slices.SortFunc(want, func(a, b record.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	ok, err := Sorted(out, record.EdgeCodec{}, record.EdgeBySource, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Sorted reports unsorted output")
	}
}

func TestSortSmallFitsInMemory(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	rng := rand.New(rand.NewSource(1))
	sortAndVerify(t, cfg, randomEdges(100, rng))
}

func TestSortEmptyInput(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	sortAndVerify(t, cfg, nil)
}

func TestSortSingleRecord(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	sortAndVerify(t, cfg, []record.Edge{{U: 7, V: 3}})
}

func TestSortAlreadySorted(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	var edges []record.Edge
	for i := uint32(0); i < 500; i++ {
		edges = append(edges, record.Edge{U: i, V: i})
	}
	sortAndVerify(t, cfg, edges)
}

func TestSortReverseSorted(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	var edges []record.Edge
	for i := 500; i > 0; i-- {
		edges = append(edges, record.Edge{U: uint32(i), V: uint32(i)})
	}
	sortAndVerify(t, cfg, edges)
}

func TestSortWithDuplicates(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	var edges []record.Edge
	for i := 0; i < 300; i++ {
		edges = append(edges, record.Edge{U: uint32(i % 7), V: uint32(i % 3)})
	}
	sortAndVerify(t, cfg, edges)
}

func TestSortMultiRunMerge(t *testing.T) {
	// A tiny memory budget forces multiple runs and at least one merge pass.
	cfg := testConfig(t, 256)
	rng := rand.New(rand.NewSource(2))
	edges := randomEdges(2000, rng)
	sortAndVerify(t, cfg, edges)
	sn := cfg.Stats.Snapshot()
	if sn.SortRuns < 2 {
		t.Fatalf("expected multiple runs, got %d", sn.SortRuns)
	}
	if sn.MergePasses < 1 {
		t.Fatalf("expected at least one merge pass, got %d", sn.MergePasses)
	}
}

func TestSortMultiPassMerge(t *testing.T) {
	// Memory of 256 bytes with 64-byte blocks gives fan-in 3, so 4000 records
	// (=> many runs) require more than one merge pass.
	cfg := testConfig(t, 256)
	rng := rand.New(rand.NewSource(3))
	sortAndVerify(t, cfg, randomEdges(4000, rng))
	if cfg.Stats.Snapshot().MergePasses < 2 {
		t.Fatalf("expected multi-pass merge, got %d passes", cfg.Stats.Snapshot().MergePasses)
	}
}

func TestSortByTargetOrder(t *testing.T) {
	cfg := testConfig(t, 512)
	rng := rand.New(rand.NewSource(4))
	edges := randomEdges(1000, rng)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	s := New[record.Edge](record.EdgeCodec{}, record.EdgeByTarget, cfg)
	if err := s.SortFile(in, out); err != nil {
		t.Fatal(err)
	}
	ok, err := Sorted(out, record.EdgeCodec{}, record.EdgeByTarget, cfg)
	if err != nil || !ok {
		t.Fatalf("not sorted by target: ok=%v err=%v", ok, err)
	}
}

func TestSortStreamFromSlice(t *testing.T) {
	cfg := testConfig(t, 512)
	out := filepath.Join(t.TempDir(), "out.bin")
	nodes := []record.NodeID{9, 3, 7, 1, 3, 2}
	s := New[record.NodeID](record.NodeCodec{}, record.NodeByID, cfg)
	if err := s.SortStream(recio.NewSliceIterator(nodes), out); err != nil {
		t.Fatal(err)
	}
	got, err := recio.ReadAll(out, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []record.NodeID{1, 2, 3, 3, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSortedDetectsUnsorted(t *testing.T) {
	cfg := testConfig(t, 512)
	path := filepath.Join(t.TempDir(), "unsorted.bin")
	if err := recio.WriteSlice(path, record.NodeCodec{}, cfg, []record.NodeID{2, 1}); err != nil {
		t.Fatal(err)
	}
	ok, err := Sorted(path, record.NodeCodec{}, record.NodeByID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Sorted failed to detect unsorted file")
	}
}

func TestSortIsPermutationProperty(t *testing.T) {
	cfg := testConfig(t, 256)
	dir := t.TempDir()
	i := 0
	f := func(raw []uint32) bool {
		i++
		edges := make([]record.Edge, len(raw))
		for j, r := range raw {
			edges[j] = record.Edge{U: r % 64, V: (r >> 8) % 64}
		}
		in := filepath.Join(dir, "in.bin")
		out := filepath.Join(dir, "out.bin")
		if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
			return false
		}
		s := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg)
		if err := s.SortFile(in, out); err != nil {
			return false
		}
		got, err := recio.ReadAll(out, record.EdgeCodec{}, cfg)
		if err != nil || len(got) != len(edges) {
			return false
		}
		// Multiset equality via counting.
		counts := map[record.Edge]int{}
		for _, e := range edges {
			counts[e]++
		}
		for _, e := range got {
			counts[e]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		// Order check.
		for j := 1; j < len(got); j++ {
			if record.EdgeBySource(got[j]).Less(record.EdgeBySource(got[j-1])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSortChargesIO(t *testing.T) {
	cfg := testConfig(t, 256)
	rng := rand.New(rand.NewSource(5))
	edges := randomEdges(1000, rng)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	before := cfg.Stats.Snapshot()
	s := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg)
	if err := s.SortFile(in, out); err != nil {
		t.Fatal(err)
	}
	delta := cfg.Stats.Snapshot().Sub(before)
	if delta.ReadBlocks == 0 || delta.WriteBlocks == 0 {
		t.Fatalf("sort charged no I/O: %+v", delta)
	}
	// External sort must be dominated by sequential access: random I/Os stay
	// far below total I/Os.
	if delta.RandomIOs() > delta.TotalIOs()/2 {
		t.Fatalf("sort performed too many random I/Os: %+v", delta)
	}
}

// goroutineCounter is an input iterator that records, at every record it
// hands out, how many goroutines are running.
type goroutineCounter struct {
	recio.Iterator[record.Edge]
	peak int
}

func (c *goroutineCounter) Next() (record.Edge, bool, error) {
	c.peak = max(c.peak, runtime.NumGoroutine())
	return c.Iterator.Next()
}

// TestSortRunsOnCallerGoroutine pins that a multi-run sort does all its work
// on the calling goroutine, whatever worker count the configuration carries:
// while the sort pulls its input, no goroutine beyond the test's own exists
// (a background run writer would show up here).
func TestSortRunsOnCallerGoroutine(t *testing.T) {
	cfg := testConfig(t, 256)
	cfg.Workers = 4
	edges := randomEdges(2000, rand.New(rand.NewSource(14)))
	base := runtime.NumGoroutine()
	in := &goroutineCounter{Iterator: recio.NewSliceIterator(edges)}
	out := filepath.Join(t.TempDir(), "out.bin")
	before := cfg.Stats.Snapshot()
	if err := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg).SortStream(in, out); err != nil {
		t.Fatal(err)
	}
	if runs := cfg.Stats.Snapshot().Sub(before).SortRuns; runs < 2 {
		t.Fatalf("workload formed %d run(s); the pin needs several", runs)
	}
	if in.peak > base {
		t.Fatalf("%d goroutines ran while the sort read its input, %d before it started", in.peak, base)
	}
}

// TestTinyMemoryBudgetError is the regression test for pathological budgets:
// a memory budget below two blocks must be rejected with a clear error
// instead of thrashing one-block runs.
func TestTinyMemoryBudgetError(t *testing.T) {
	for _, memory := range []int64{0, 1, 64, 127} {
		cfg := testConfig(t, memory) // BlockSize 64 => needs >= 128
		dir := t.TempDir()
		cfg.TempDir = dir
		in := filepath.Join(t.TempDir(), "in.bin")
		out := filepath.Join(t.TempDir(), "out.bin")
		if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, randomEdges(64, rand.New(rand.NewSource(6)))); err != nil {
			t.Fatal(err)
		}
		s := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg)
		err := s.SortFile(in, out)
		if err == nil {
			t.Fatalf("memory=%d: expected an error for a sub-2-block budget", memory)
		}
		if !strings.Contains(err.Error(), "memory budget") {
			t.Fatalf("memory=%d: error should explain the budget problem, got: %v", memory, err)
		}
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(entries) != 0 {
			t.Fatalf("memory=%d: rejected sort left temp files: %v", memory, entries)
		}
	}
}

// cancelAfterCalls is a deterministic context: Err returns context.Canceled
// from the n-th call on.  It lets tests land a cancellation at a chosen
// checkpoint (e.g. mid-merge) without racing a timer.
type cancelAfterCalls struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *cancelAfterCalls) Err() error {
	if c.calls.Add(1) >= c.after {
		return context.Canceled
	}
	return nil
}

// TestParallelSortCancellationMidMerge cancels a sort while its merge passes
// are running and verifies every temporary file (runs, merge intermediates,
// the partial output) is removed.
func TestParallelSortCancellationMidMerge(t *testing.T) {
	cfg := testConfig(t, 256)
	tempDir := t.TempDir()
	cfg.TempDir = tempDir
	rng := rand.New(rand.NewSource(12))
	edges := randomEdges(5000, rng) // ~313 runs at 16 records/run
	ioDir := t.TempDir()
	in := filepath.Join(ioDir, "in.bin")
	out := filepath.Join(ioDir, "out.bin")
	if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}

	// Run formation performs one Err check per run (~313); cancelling a few
	// hundred checks later lands inside the merge phase.
	ctx := &cancelAfterCalls{Context: context.Background(), after: 330}
	s := NewContext[record.Edge](ctx, record.EdgeCodec{}, record.EdgeBySource, cfg)
	err := s.SortFile(in, out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	entries, rerr := os.ReadDir(tempDir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 0 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cancelled sort left %d temp files: %v", len(names), names)
	}
	if _, err := cfg.Backend().Open(out); !storage.IsNotExist(err) {
		t.Fatalf("cancelled sort left a partial output file (open err: %v)", err)
	}
}

// TestParallelSortCancellationDuringRunFormation cancels while runs are still
// being formed.
func TestParallelSortCancellationDuringRunFormation(t *testing.T) {
	cfg := testConfig(t, 256)
	tempDir := t.TempDir()
	cfg.TempDir = tempDir
	rng := rand.New(rand.NewSource(13))
	edges := randomEdges(4000, rng)
	ioDir := t.TempDir()
	in := filepath.Join(ioDir, "in.bin")
	out := filepath.Join(ioDir, "out.bin")
	if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfterCalls{Context: context.Background(), after: 20}
	s := NewContext[record.Edge](ctx, record.EdgeCodec{}, record.EdgeBySource, cfg)
	if err := s.SortFile(in, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if entries, _ := os.ReadDir(tempDir); len(entries) != 0 {
		t.Fatalf("cancelled run formation left %d temp files", len(entries))
	}
}

// TestParallelSortEmptyAndTinyInputs exercises the sorter's edge cases:
// empty input, a few records, exactly one run, one record past it.
func TestParallelSortEmptyAndTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1, 3, 16, 17} {
		cfg := testConfig(t, 256)
		rng := rand.New(rand.NewSource(int64(20 + n)))
		sortAndVerify(t, cfg, randomEdges(n, rng))
	}
}

// TestSortFileVarintCodec sorts under the varint codec family: runs and
// merges are written as compressed frames, the sorted record sequence is
// identical to the fixed codec's, and the sort charges fewer block I/Os.
func TestSortFileVarintCodec(t *testing.T) {
	edges := make([]record.Edge, 5000)
	rng := uint32(12345)
	for i := range edges {
		rng = rng*1664525 + 1013904223
		edges[i] = record.Edge{U: rng % 4096, V: (rng >> 12) % 4096}
	}

	sortUnder := func(codec string) ([]record.Edge, int64) {
		cfg := iomodel.Config{
			BlockSize: 4096,
			Memory:    16 * 1024,
			TempDir:   t.TempDir(),
			Codec:     codec,
			Stats:     &iomodel.Stats{},
		}
		in := filepath.Join(t.TempDir(), "in.bin")
		out := filepath.Join(t.TempDir(), "out.bin")
		if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
			t.Fatal(err)
		}
		base := cfg.Stats.Snapshot()
		if err := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg).SortFile(in, out); err != nil {
			t.Fatal(err)
		}
		ios := cfg.Stats.Snapshot().Sub(base).TotalIOs()
		sorted, err := recio.ReadAll(out, record.EdgeCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := Sorted(out, record.EdgeCodec{}, record.EdgeBySource, cfg)
		if err != nil || !ok {
			t.Fatalf("output not sorted (err=%v)", err)
		}
		return sorted, ios
	}

	fixedSorted, fixedIOs := sortUnder(record.FamilyFixed)
	varSorted, varIOs := sortUnder(record.FamilyVarint)
	if len(fixedSorted) != len(varSorted) {
		t.Fatalf("sorted %d records under fixed, %d under varint", len(fixedSorted), len(varSorted))
	}
	for i := range fixedSorted {
		if fixedSorted[i] != varSorted[i] {
			t.Fatalf("record %d differs: %+v (fixed) vs %+v (varint)", i, fixedSorted[i], varSorted[i])
		}
	}
	if varIOs >= fixedIOs {
		t.Fatalf("varint sort charged %d I/Os, fixed %d; compressed runs must cost fewer blocks", varIOs, fixedIOs)
	}
}
