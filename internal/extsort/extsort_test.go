package extsort

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	want := sortedEdges(edges)
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
		assertEmpty(t, cfg, fmt.Sprintf("memory=%d: rejected sort", memory))
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

// TestSortCancellationMidMerge cancels a sort while its merge passes are
// running, and a stream while its consumer pulls the final merge, and
// verifies every temporary file (runs, merge intermediates, the partial
// output) is removed.
func TestSortCancellationMidMerge(t *testing.T) {
	cfg := testConfig(t, 256)
	rng := rand.New(rand.NewSource(12))
	edges := randomEdges(5000, rng) // ~313 runs at 16 records/run
	ioDir := t.TempDir()
	in := filepath.Join(ioDir, "in.bin")
	out := filepath.Join(ioDir, "out.bin")
	if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}

	// Run formation performs one Err check per run (~313); cancelling a few
	// hundred checks later lands inside the merge passes.
	ctx := &cancelAfterCalls{Context: context.Background(), after: 330}
	s := NewContext[record.Edge](ctx, record.EdgeCodec{}, record.EdgeBySource, cfg)
	err := s.SortFile(in, out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	assertEmpty(t, cfg, "cancelled sort")
	if _, err := cfg.Backend().Open(out); !storage.IsNotExist(err) {
		t.Fatalf("cancelled sort left a partial output file (open err: %v)", err)
	}

	// Cancelled mid-stream: Next reports the cancellation within checkEvery
	// records, and the stream's runs are gone once it is closed.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := NewContext[record.Edge](cctx, record.EdgeCodec{}, record.EdgeBySource, cfg).Sort(recio.NewSliceIterator(randomEdges(3*checkEvery, rng)))
	if err != nil {
		t.Fatal(err)
	}
	pulled := 0
	for ; ; pulled++ {
		if pulled == 10 {
			cancel()
		}
		_, ok, err := st.Next()
		if errors.Is(err, context.Canceled) {
			break
		}
		if err != nil || !ok {
			t.Fatalf("stream ended after %d records with err=%v; want context.Canceled", pulled, err)
		}
	}
	if pulled > 10+checkEvery {
		t.Fatalf("cancellation surfaced %d records after it happened", pulled-10)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertEmpty(t, cfg, "cancelled stream")
}

// tempFiles lists the files under cfg.TempDir on cfg's backend.
func tempFiles(t *testing.T, cfg iomodel.Config) []string {
	t.Helper()
	files, err := cfg.Backend().List(cfg.TempDir)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// assertEmpty fails the test when cfg.TempDir holds any file.
func assertEmpty(t *testing.T, cfg iomodel.Config, what string) {
	t.Helper()
	if files := tempFiles(t, cfg); len(files) != 0 {
		t.Fatalf("%s left %d temp files: %v", what, len(files), files)
	}
}

// TestSortCancellationDuringRunFormation cancels while runs are still being
// formed, on the pull side (Sort of a file) and on the push side (a
// RunWriter's Write).
func TestSortCancellationDuringRunFormation(t *testing.T) {
	cfg := testConfig(t, 256)
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
	assertEmpty(t, cfg, "cancelled run formation")

	ctx = &cancelAfterCalls{Context: context.Background(), after: 20}
	w, err := NewContext[record.Edge](ctx, record.EdgeCodec{}, record.EdgeBySource, cfg).RunWriter()
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for _, e := range edges {
		if werr = w.Write(e); werr != nil {
			break
		}
	}
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("Write: expected context.Canceled, got %v", werr)
	}
	w.Abort()
	assertEmpty(t, cfg, "aborted run writer")
}

// TestSortEmptyAndTinyInputs exercises the sorter's edge cases: empty
// input, a few records, exactly one run, one record past it; each through a
// file and through a stream.
func TestSortEmptyAndTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1, 3, 16, 17} {
		cfg := testConfig(t, 256)
		rng := rand.New(rand.NewSource(int64(20 + n)))
		edges := randomEdges(n, rng)
		sortAndVerify(t, cfg, edges)
		st, err := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg).Sort(recio.NewSliceIterator(edges))
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, st)
		if want := sortedEdges(edges); !slices.Equal(got, want) {
			t.Fatalf("n=%d: stream = %v, want %v", n, got, want)
		}
	}
}

// drain reads every record of st and closes it.
func drain[T any](t *testing.T, st *Stream[T]) []T {
	t.Helper()
	defer st.Close()
	var out []T
	for {
		rec, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// sortedEdges returns a sorted copy of edges, the reference result.
func sortedEdges(edges []record.Edge) []record.Edge {
	want := slices.Clone(edges)
	slices.SortFunc(want, func(a, b record.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return want
}

// TestSortOneRunWritesNothing pins the single-run shortcut: a sort whose
// input fits one run creates no file and writes no block of its own.
// SortFile writes its output once and nothing else; Sort writes nothing.
// The fixed layout makes a scan read exactly the file's blocks.
func TestSortOneRunWritesNothing(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	cfg.Codec = record.FamilyFixed
	edges := randomEdges(1000, rand.New(rand.NewSource(30)))
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	if err := recio.WriteSlice(in, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	blocks := func(path string) int64 {
		f, err := cfg.Backend().Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Blocks(size)
	}
	s := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg)
	before := cfg.Stats.Snapshot()
	if err := s.SortFile(in, out); err != nil {
		t.Fatal(err)
	}
	d := cfg.Stats.Snapshot().Sub(before)
	if d.FilesCreated != 0 || d.WriteBlocks != blocks(out) || d.ReadBlocks != blocks(in) {
		t.Fatalf("one-run SortFile: %d files created, %d blocks written, %d read; want 0, %d (the output), %d (the input)",
			d.FilesCreated, d.WriteBlocks, d.ReadBlocks, blocks(out), blocks(in))
	}
	assertEmpty(t, cfg, "one-run SortFile")

	before = cfg.Stats.Snapshot()
	st, err := s.Sort(recio.NewSliceIterator(edges))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, st)
	if d := cfg.Stats.Snapshot().Sub(before); d.FilesCreated != 0 || d.TotalIOs() != 0 {
		t.Fatalf("one-run Sort: %d files created, %d I/Os; want none", d.FilesCreated, d.TotalIOs())
	}
	if !slices.Equal(got, sortedEdges(edges)) {
		t.Fatal("one-run stream is not the sorted input")
	}
}

// TestStreamMergeReadersBound checks the memory rule on a many-run input at
// M = 8B: run formation holds at most M/2 bytes, and the streamed final merge
// never holds more than M/B - consumerBlocks run readers, so its consumer's
// consumerBlocks blocks still fit in M.  The stream is sorted and complete,
// and its runs are gone once it is drained.
func TestStreamMergeReadersBound(t *testing.T) {
	tracker := &OpenTracker{Backend: storage.NewMem()}
	cfg := iomodel.Config{BlockSize: 64, Memory: 8 * 64, TempDir: "/sort", Storage: tracker, Stats: &iomodel.Stats{}}
	s := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg)
	capRecords, err := s.runCapacity()
	if err != nil {
		t.Fatal(err)
	}
	if int64(capRecords*record.EdgeCodec{}.Size()) > cfg.Memory/2 {
		t.Fatalf("run buffer holds %d records of %d bytes, more than M/2 = %d", capRecords, record.EdgeCodec{}.Size(), cfg.Memory/2)
	}
	limit := int(cfg.Memory/int64(cfg.BlockSize)) - consumerBlocks
	edges := randomEdges(5000, rand.New(rand.NewSource(31)))
	before := cfg.Stats.Snapshot()
	st, err := s.Sort(recio.NewSliceIterator(edges))
	if err != nil {
		t.Fatal(err)
	}
	if runs := cfg.Stats.Snapshot().Sub(before).SortRuns; runs <= int64(limit) {
		t.Fatalf("workload formed %d runs; the check needs more than %d", runs, limit)
	}
	tracker.Peak()
	var got []record.Edge
	for {
		if n := tracker.Opened(); n > limit {
			t.Fatalf("streamed merge holds %d run readers, more than M/B - %d = %d", n, consumerBlocks, limit)
		}
		rec, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, rec)
	}
	if peak := tracker.Peak(); peak < 2 {
		t.Fatalf("the stream read %d runs at most; the check needs a merge", peak)
	}
	if !slices.Equal(got, sortedEdges(edges)) {
		t.Fatal("streamed merge is not the sorted input")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if left, err := tracker.List(cfg.TempDir); err != nil || len(left) != 0 {
		t.Fatalf("drained stream left %v (err %v)", left, err)
	}
}

// TestReserveBoundsStreamReaders checks the memory rule of a sort that
// reserves part of M for its stream's consumer: at M = 8B with M/4
// reserved, the streamed final merge never holds more than (M - M/4)/B -
// consumerBlocks run readers, fewer than the same sort without the
// reservation holds, and both streams yield the same sorted records.
func TestReserveBoundsStreamReaders(t *testing.T) {
	edges := randomEdges(5000, rand.New(rand.NewSource(34)))
	stream := func(reserve int64) ([]record.Edge, int) {
		tracker := &OpenTracker{Backend: storage.NewMem()}
		cfg := iomodel.Config{BlockSize: 64, Memory: 8 * 64, TempDir: "/sort", Storage: tracker, Stats: &iomodel.Stats{}}
		limit := int((cfg.Memory-reserve)/int64(cfg.BlockSize)) - consumerBlocks
		st, err := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg).Reserve(reserve).Sort(recio.NewSliceIterator(edges))
		if err != nil {
			t.Fatal(err)
		}
		tracker.Peak()
		var got []record.Edge
		for {
			if n := tracker.Opened(); n > limit {
				t.Fatalf("reserve %d: streamed merge holds %d run readers, more than (M - %d)/B - %d = %d", reserve, n, reserve, consumerBlocks, limit)
			}
			rec, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, rec)
		}
		if left, err := tracker.List(cfg.TempDir); err != nil || len(left) != 0 {
			t.Fatalf("reserve %d: drained stream left %v (err %v)", reserve, left, err)
		}
		return got, tracker.Peak()
	}
	reserved, peak := stream(8 * 64 / 4)
	plain, plainPeak := stream(0)
	if peak < 2 || peak >= plainPeak {
		t.Fatalf("the reserved stream read %d runs at once and the plain one %d; the check needs a merge the reservation narrows", peak, plainPeak)
	}
	if !slices.Equal(reserved, plain) || !slices.Equal(plain, sortedEdges(edges)) {
		t.Fatal("the reserved sort's stream differs from the plain sort's")
	}
}

// TestStreamEarlyCloseRemovesRuns stops consuming a many-run stream after a
// few records: Close removes every run, and a second Close is a no-op.
func TestStreamEarlyCloseRemovesRuns(t *testing.T) {
	cfg := testConfig(t, 512)
	st, err := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg).Sort(recio.NewSliceIterator(randomEdges(3000, rand.New(rand.NewSource(32)))))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := st.Next(); err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	if len(tempFiles(t, cfg)) == 0 {
		t.Fatal("the stream holds no run files; the check needs a merge")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	assertEmpty(t, cfg, "abandoned stream")
	if _, ok, err := st.Next(); ok || err != nil {
		t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
	}
}

// TestRunWriterMatchesSort pushes records through a RunWriter and checks the
// stream equals Sort's over the same records; Abort drops the runs written
// so far.
func TestRunWriterMatchesSort(t *testing.T) {
	cfg := testConfig(t, 512)
	edges := randomEdges(2000, rand.New(rand.NewSource(33)))
	s := New[record.Edge](record.EdgeCodec{}, record.EdgeBySource, cfg)
	w, err := s.RunWriter()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.Sort()
	if err != nil {
		t.Fatal(err)
	}
	w.Abort() // a no-op after Sort: the stream keeps its runs
	if !slices.Equal(drain(t, st), sortedEdges(edges)) {
		t.Fatal("pushed records did not come back sorted")
	}
	assertEmpty(t, cfg, "drained stream")

	w, err = s.RunWriter()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(tempFiles(t, cfg)) == 0 {
		t.Fatal("no run written; the check needs several")
	}
	w.Abort()
	assertEmpty(t, cfg, "aborted run writer")
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
