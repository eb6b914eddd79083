// Package extsort implements a memory-bounded, I/O-accounted external merge
// sort over record files.  Runs and merge outputs are written through
// package recio, so they inherit the run's codec family: under a compressing
// codec every run and every merge pass occupies fewer blocks, and the sort
// charges correspondingly fewer I/Os.  It is the sort(m) primitive of the
// paper's cost model: run formation uses at most the configured memory budget
// and the k-way merge fan-in is derived from M/B, so the number of merge
// passes matches Theta(log_{M/B}(m/B)).
//
// A sort order is a key function: each record maps to a record.Key, compared
// Hi first.  Run formation sorts each memory load in place with an MSD radix
// sort on the key's bytes, and the k-way merge compares the cached keys of
// the run heads.  The radix sort is not stable, but on every file the engine
// sorts a record's key determines the record (see the orders of package
// record), so the sorted output depends on the input's records alone.
//
// A sort is pipelined at both ends, as in STXXL (Dementiev, Kettner &
// Sanders, SPE 38(6), 2008).  On the push side a producer writes its records
// into a RunWriter, straight into run formation, so the sort's input is never
// a file; Sort(in) is a RunWriter fed from an iterator.  On the pull side the
// sort returns a Stream over its last merge, which its one consumer drives,
// so the sorted output is never a file either.  A sort whose input fits one
// run is served from memory and writes nothing.  Merge passes before the last
// still write files.  SortFile is Sort followed by writing the stream, for
// outputs that several operators read.
//
// The memory rule.  A sort runs entirely on its caller's goroutine and keeps
// to the budget M:
//   - run formation holds one batch of at most M/2 bytes of records,
//     allocated up front, plus the block buffer of the run it writes;
//   - a merge pass that writes a file holds at most M/B block buffers
//     (SortFanIn inputs plus its output);
//   - a Stream holds either the single run in memory (at most M/2 bytes) or
//     the input buffers of the final merge, at most (M - R)/B -
//     consumerBlocks of them, and its consumer may hold consumerBlocks
//     blocks more plus the R bytes the sort reserved for it (Reserve; R is
//     0 unless the consumer keeps an in-memory structure besides its
//     blocks).  Both stay within M whenever R <= M/4 and M >=
//     4*consumerBlocks*B (below that, down to the model's minimum M = 2B,
//     the fan-in floor of two exceeds it by a few blocks);
//   - at most one sort holds its memory at any time.  A stream never feeds
//     another sort's RunWriter: its consumer writes a file, and the next sort
//     reads that file, so a chain of sorts alternates between a stream and a
//     file.
//
// Profile spans: every sort opens one "sort" span, which covers run
// formation from the RunWriter's creation to its last run, the producer's
// time between pushed records included.  A "merge" span covers only the
// merge passes that write files; the streamed final merge counts as its
// consumer's time.
package extsort

import (
	"container/heap"
	"context"
	"fmt"
	"io"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// checkEvery is how many records the per-record loops process between two
// cancellation checks.
const checkEvery = 8192

// consumerBlocks is the number of block buffers a Stream leaves to its
// consumer.  The widest consumers hold three besides the stream they pull:
// contraction's cover scan reads the degree table and writes E_d's plain
// projection and the cover candidates (it also holds its Type-2 dictionary,
// which its sort reserves), contraction's split reads the cover and writes
// next-edges and eout-del, and expansion's intersect reads aug-in and the
// removed-step file and writes the removed nodes' labels.
const consumerBlocks = 3

// Sorter sorts record files of type T by a fixed key function.
type Sorter[T any] struct {
	codec   record.Codec[T]
	key     func(T) record.Key
	cfg     iomodel.Config
	ctx     context.Context
	reserve int64 // bytes of M left to the stream's consumer (Reserve)
}

// New returns a Sorter for records of type T ordered by key (one of the
// orders of package record), operating under the memory budget and block
// size of cfg.
func New[T any](codec record.Codec[T], key func(T) record.Key, cfg iomodel.Config) *Sorter[T] {
	return NewContext(context.Background(), codec, key, cfg)
}

// NewContext is New with a cancellation context: cancelling ctx aborts a
// running sort between batches, merge groups and record chunks, and every
// temporary file the sort created is removed.
func NewContext[T any](ctx context.Context, codec record.Codec[T], key func(T) record.Key, cfg iomodel.Config) *Sorter[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Sorter[T]{codec: codec, key: key, cfg: cfg, ctx: ctx}
}

// Reserve sets aside bytes of the memory budget for the consumer of the
// sort's stream, beside its consumerBlocks block buffers: the streamed final
// merge then reads at most (M - bytes)/B - consumerBlocks runs.  A consumer
// that keeps an in-memory structure while it drains the stream reserves its
// size.  Reserve returns s.
func (s *Sorter[T]) Reserve(bytes int64) *Sorter[T] {
	s.reserve = bytes
	return s
}

func (s *Sorter[T]) ctxErr() error { return s.ctx.Err() }

// blockSize returns the effective block size of the sorter.
func (s *Sorter[T]) blockSize() int {
	if s.cfg.BlockSize > 0 {
		return s.cfg.BlockSize
	}
	return iomodel.DefaultBlockSize
}

// runCapacity returns the number of records sorted in memory per run.  Half
// of the memory budget is reserved for the record slice; the remainder covers
// block buffers and bookkeeping.  A budget too small to hold a record slice
// next to two block buffers (M < 2*B, the Aggarwal–Vitter minimum) is
// rejected: sorting under it would thrash one-block runs instead of making
// progress.
func (s *Sorter[T]) runCapacity() (int, error) {
	if bs := int64(s.blockSize()); s.cfg.Memory < 2*bs {
		return 0, fmt.Errorf("extsort: memory budget %d bytes cannot hold a sort buffer alongside two %d-byte block buffers (the I/O model requires M >= 2*B); raise Memory or shrink BlockSize", s.cfg.Memory, bs)
	}
	capRecords := int(s.cfg.Memory / 2 / int64(s.codec.Size()))
	if capRecords < 4 {
		capRecords = 4
	}
	return capRecords, nil
}

// Sort sorts every record in produces and returns the stream over the
// result: a RunWriter fed from in.
func (s *Sorter[T]) Sort(in recio.Iterator[T]) (*Stream[T], error) {
	w, err := s.RunWriter()
	if err != nil {
		return nil, err
	}
	for {
		rec, ok, err := in.Next()
		if err != nil {
			w.Abort()
			return nil, err
		}
		if !ok {
			return w.Sort()
		}
		if err := w.Write(rec); err != nil {
			w.Abort()
			return nil, err
		}
	}
}

// SortPath sorts the record file at path and returns the stream over the
// result.  The file is left untouched.
func (s *Sorter[T]) SortPath(path string) (*Stream[T], error) {
	r, err := recio.NewReader(path, s.codec, s.cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return s.Sort(r.Iter())
}

// SortFile sorts the record file at inPath into a new file at outPath.
// The input file is left untouched.
func (s *Sorter[T]) SortFile(inPath, outPath string) error {
	st, err := s.SortPath(inPath)
	if err != nil {
		return err
	}
	return s.write(st, outPath)
}

// SortStream sorts all records produced by in into a new file at outPath.
func (s *Sorter[T]) SortStream(in recio.Iterator[T], outPath string) error {
	st, err := s.Sort(in)
	if err != nil {
		return err
	}
	return s.write(st, outPath)
}

// write drains st into a new file at outPath and closes it.  On error the
// partial output is removed.
func (s *Sorter[T]) write(st *Stream[T], outPath string) error {
	_, err := recio.WriteAll(outPath, s.codec, s.cfg, st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		blockio.Remove(outPath, s.cfg)
	}
	return err
}

// SortSlice sorts recs in memory by the Sorter's key with an in-place radix
// sort; no I/O is charged.  The sort is not stable: records with equal keys
// may land in any order.
func (s *Sorter[T]) SortSlice(recs []T) { radixSort(recs, s.key) }

// RunWriter is the push side of a sort: a producer writes its records
// straight into run formation, so they never pass through an input file.
// Write the records, then call Sort for the stream over the result, or Abort
// to drop them.  A RunWriter is not safe for concurrent use, and neither
// Write nor Sort may follow Sort or Abort.
type RunWriter[T any] struct {
	s       *Sorter[T]
	buf     []T
	runs    []string
	written int
	span    prof.Span
	done    bool
}

// RunWriter starts a sort fed through Write.  It allocates the M/2 run
// buffer up front and opens the sort's "sort" span, which the producer's
// time between records counts towards until Sort or Abort ends it.
func (s *Sorter[T]) RunWriter() (*RunWriter[T], error) {
	capRecords, err := s.runCapacity()
	if err != nil {
		return nil, err
	}
	return &RunWriter[T]{s: s, buf: make([]T, 0, capRecords), span: s.cfg.Prof.Start("sort")}, nil
}

// Write adds one record to the sort.  A full run buffer is sorted and
// written as a run file.
func (w *RunWriter[T]) Write(rec T) error {
	if w.written++; w.written%checkEvery == 0 {
		if err := w.s.ctxErr(); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, rec)
	if len(w.buf) == cap(w.buf) {
		return w.flush()
	}
	return nil
}

// flush writes the buffered records as one sorted run file.
func (w *RunWriter[T]) flush() error {
	path, err := w.s.writeRun(w.buf)
	if err != nil {
		return err
	}
	w.runs = append(w.runs, path)
	w.buf = w.buf[:0]
	return nil
}

// Sort ends run formation and returns the stream over the sorted records.
// When every record fit the run buffer, the stream serves that run from
// memory and nothing is written.  Otherwise the last run is written, merge
// passes that write files reduce the runs to at most finalFanIn, and the
// stream is the merge of those.  On error every run is removed.
func (w *RunWriter[T]) Sort() (*Stream[T], error) {
	s := w.s
	if len(w.runs) == 0 {
		recs := w.buf
		if err := s.ctxErr(); err != nil {
			w.finish()
			return nil, err
		}
		s.SortSlice(recs)
		if len(recs) > 0 {
			s.cfg.Stats.CountSortRun(int64(len(recs)))
		}
		w.finish()
		return &Stream[T]{ctx: s.ctx, src: recio.NewSliceIterator(recs)}, nil
	}
	if len(w.buf) > 0 {
		if err := w.flush(); err != nil {
			w.Abort()
			return nil, err
		}
	}
	runs := w.runs
	w.finish()
	return s.merge(runs)
}

// Abort ends run formation without sorting and removes every run written so
// far.  It is a no-op after Sort, so a producer can defer it.
func (w *RunWriter[T]) Abort() {
	if w.done {
		return
	}
	removeAll(w.runs, w.s.cfg)
	w.finish()
}

// finish releases the run buffer and closes the "sort" span.
func (w *RunWriter[T]) finish() {
	w.buf, w.runs, w.done = nil, nil, true
	w.span.End()
}

// writeRun sorts one batch and writes it as a run file.
func (s *Sorter[T]) writeRun(buf []T) (string, error) {
	if err := s.ctxErr(); err != nil {
		return "", err
	}
	s.SortSlice(buf)
	path := blockio.TempFile(s.cfg.TempDir, "extsort-run", s.cfg.Stats)
	if err := recio.WriteSlice(path, s.codec, s.cfg, buf); err != nil {
		blockio.Remove(path, s.cfg)
		return "", err
	}
	s.cfg.Stats.CountSortRun(int64(len(buf)))
	return path, nil
}

// finalFanIn returns how many runs the streamed final merge reads at once:
// the block buffers that fit in M less the reserved bytes, less the
// consumerBlocks left to the stream's consumer, and never fewer than two.
func (s *Sorter[T]) finalFanIn() int {
	return max(2, int((s.cfg.Memory-s.reserve)/int64(s.blockSize()))-consumerBlocks)
}

// merge runs merge passes that write files until at most finalFanIn runs
// remain, then returns the stream over their merge.  It owns runs: on error
// every run and every intermediate file is removed.
func (s *Sorter[T]) merge(runs []string) (*Stream[T], error) {
	if final := s.finalFanIn(); len(runs) > final {
		sp := s.cfg.Prof.Start("merge")
		var err error
		runs, err = s.mergePasses(runs, final)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	if err := s.ctxErr(); err != nil {
		removeAll(runs, s.cfg)
		return nil, err
	}
	m, err := s.openMerge(runs)
	if err != nil {
		removeAll(runs, s.cfg)
		return nil, err
	}
	s.cfg.Stats.CountMergePass()
	return &Stream[T]{ctx: s.ctx, src: m, merge: m, runs: runs, cfg: s.cfg}, nil
}

// mergePasses merges groups of at most SortFanIn runs into new run files,
// pass after pass, until at most final runs remain.  A pass merges only as
// many groups as it takes to get there, so the last pass leaves the other
// runs untouched.  On error every file in flight is removed.
func (s *Sorter[T]) mergePasses(runs []string, final int) ([]string, error) {
	fanIn := max(2, s.cfg.SortFanIn())
	for len(runs) > final {
		s.cfg.Stats.CountMergePass()
		var next []string
		for len(runs) > 1 && len(runs)+len(next) > final {
			if err := s.ctxErr(); err != nil {
				removeAll(runs, s.cfg)
				removeAll(next, s.cfg)
				return nil, err
			}
			// Merging g runs into one removes g-1 of them.
			g := runs[:min(fanIn, len(runs), len(runs)+len(next)-final+1)]
			out := blockio.TempFile(s.cfg.TempDir, "extsort-merge", s.cfg.Stats)
			next = append(next, out)
			if err := s.mergeGroup(g, out); err != nil {
				removeAll(runs, s.cfg)
				removeAll(next, s.cfg)
				return nil, err
			}
			removeAll(g, s.cfg)
			runs = runs[len(g):]
		}
		runs = append(next, runs...)
	}
	return runs, nil
}

// mergeGroup merges the sorted run files in group into a single sorted file
// at target.
func (s *Sorter[T]) mergeGroup(group []string, target string) error {
	m, err := s.openMerge(group)
	if err != nil {
		return err
	}
	defer m.close()
	_, err = recio.WriteAll(target, s.codec, s.cfg, &Stream[T]{ctx: s.ctx, src: m})
	return err
}

// mergeItem is one heap entry of the k-way merge: a run's head record with
// its cached key.
type mergeItem[T any] struct {
	key record.Key
	rec T
	src int
}

type mergeHeap[T any] struct {
	items []mergeItem[T]
}

func (h *mergeHeap[T]) Len() int           { return len(h.items) }
func (h *mergeHeap[T]) Less(i, j int) bool { return h.items[i].key.Less(h.items[j].key) }
func (h *mergeHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap[T]) Push(x any)         { h.items = append(h.items, x.(mergeItem[T])) }
func (h *mergeHeap[T]) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}
func (h *mergeHeap[T]) peek() mergeItem[T]  { return h.items[0] }
func (h *mergeHeap[T]) fix(it mergeItem[T]) { h.items[0] = it; heap.Fix(h, 0) }

// merger is a k-way merge over sorted run files: an Iterator that yields
// their records in key order.
type merger[T any] struct {
	key     func(T) record.Key
	readers []*recio.Reader[T]
	h       mergeHeap[T]
}

// openMerge opens a reader on every run and reads each run's head record.
// On error it closes the readers it opened; the files stay the caller's.
func (s *Sorter[T]) openMerge(runs []string) (*merger[T], error) {
	m := &merger[T]{key: s.key}
	for i, path := range runs {
		r, err := recio.NewReader(path, s.codec, s.cfg)
		if err != nil {
			m.close()
			return nil, err
		}
		m.readers = append(m.readers, r)
		rec, err := r.Read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			m.close()
			return nil, err
		}
		m.h.items = append(m.h.items, mergeItem[T]{key: s.key(rec), rec: rec, src: i})
	}
	heap.Init(&m.h)
	return m, nil
}

// Next implements recio.Iterator: it returns the smallest head record and
// refills its run's slot in the heap.
func (m *merger[T]) Next() (T, bool, error) {
	if m.h.Len() == 0 {
		var zero T
		return zero, false, nil
	}
	top := m.h.peek()
	rec, err := m.readers[top.src].Read()
	switch {
	case err == io.EOF:
		heap.Pop(&m.h)
	case err != nil:
		var zero T
		return zero, false, err
	default:
		m.h.fix(mergeItem[T]{key: m.key(rec), rec: rec, src: top.src})
	}
	return top.rec, true, nil
}

// close closes every run reader.
func (m *merger[T]) close() {
	for _, r := range m.readers {
		r.Close()
	}
	m.readers = nil
}

// Stream is the pull side of a sort: an iterator over its last merge, which
// the consumer drives.  It serves a sort that fit one run from memory and
// otherwise merges at most finalFanIn run files.  Next checks the sort's
// context every checkEvery records.  A stream releases its memory and
// removes its runs once drained; Close does the same for a stream abandoned
// early, failed or cancelled, and is idempotent.
type Stream[T any] struct {
	ctx   context.Context
	src   recio.Iterator[T] // nil once released
	merge *merger[T]        // non-nil when src merges run files
	runs  []string          // the run files the stream owns
	cfg   iomodel.Config
	n     int
	err   error
}

// Next implements recio.Iterator.
func (st *Stream[T]) Next() (T, bool, error) {
	var zero T
	if st.src == nil {
		return zero, false, st.err
	}
	if st.n++; st.n%checkEvery == 0 {
		if err := st.ctx.Err(); err != nil {
			st.err = err
			st.Close()
			return zero, false, err
		}
	}
	rec, ok, err := st.src.Next()
	if err != nil || !ok {
		st.err = err
		st.Close()
		return zero, false, err
	}
	return rec, true, nil
}

// Close releases the stream's memory and removes its runs.
func (st *Stream[T]) Close() error {
	if st.src == nil {
		return nil
	}
	st.src = nil
	if st.merge != nil {
		st.merge.close()
		st.merge = nil
	}
	var err error
	for _, p := range st.runs {
		if rerr := blockio.Remove(p, st.cfg); rerr != nil && err == nil {
			err = rerr
		}
	}
	st.runs = nil
	return err
}

func removeAll(paths []string, cfg iomodel.Config) {
	for _, p := range paths {
		blockio.Remove(p, cfg)
	}
}

// Sorted reports whether the record file at path is sorted by key.  It is a
// verification helper for tests.
func Sorted[T any](path string, codec record.Codec[T], key func(T) record.Key, cfg iomodel.Config) (bool, error) {
	r, err := recio.NewReader(path, codec, cfg)
	if err != nil {
		return false, err
	}
	defer r.Close()
	var prev record.Key
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		k := key(rec)
		if !first && k.Less(prev) {
			return false, nil
		}
		prev = k
		first = false
	}
}
