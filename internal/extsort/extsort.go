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
// A sort runs entirely on its caller's goroutine.  Run formation holds one
// batch of at most M/2 bytes of records, and a merge holds at most M/B block
// buffers (SortFanIn inputs plus its output), so the sort keeps to the
// memory budget M whatever else the run is configured with.
package extsort

import (
	"container/heap"
	"context"
	"fmt"
	"io"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// checkEvery is how many records the per-record loops process between two
// cancellation checks.
const checkEvery = 8192

// Sorter sorts record files of type T by a fixed key function.
type Sorter[T any] struct {
	codec record.Codec[T]
	key   func(T) record.Key
	cfg   iomodel.Config
	ctx   context.Context
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

// SortFile sorts the record file at inPath into a new file at outPath.
// The input file is left untouched.
func (s *Sorter[T]) SortFile(inPath, outPath string) error {
	r, err := recio.NewReader(inPath, s.codec, s.cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	return s.SortStream(r.Iter(), outPath)
}

// SortStream sorts all records produced by in into a new file at outPath.
// Run formation and run merging report to the run profile as the "sort" and
// "merge" phases.
func (s *Sorter[T]) SortStream(in recio.Iterator[T], outPath string) error {
	sp := s.cfg.Prof.Start("sort")
	runs, err := s.formRuns(in)
	sp.End()
	if err != nil {
		removeAll(runs, s.cfg)
		return err
	}
	sp = s.cfg.Prof.Start("merge")
	err = s.mergeRuns(runs, outPath)
	sp.End()
	if err != nil {
		removeAll(runs, s.cfg)
		return err
	}
	return nil
}

// SortSlice sorts recs in memory by the Sorter's key with an in-place radix
// sort; no I/O is charged.  The sort is not stable: records with equal keys
// may land in any order.
func (s *Sorter[T]) SortSlice(recs []T) { radixSort(recs, s.key) }

// formRuns splits the input stream into sorted runs, each at most
// runCapacity() records, and writes every run to a temporary file.  The run
// boundaries depend only on the input order and the memory budget.
func (s *Sorter[T]) formRuns(in recio.Iterator[T]) ([]string, error) {
	capRecords, err := s.runCapacity()
	if err != nil {
		return nil, err
	}
	var runs []string
	buf := make([]T, 0, capRecords)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		path, err := s.writeRun(buf)
		if err != nil {
			return err
		}
		runs = append(runs, path)
		buf = buf[:0]
		return nil
	}
	scanned := 0
	for {
		rec, ok, err := in.Next()
		if err != nil {
			return runs, err
		}
		if !ok {
			break
		}
		if scanned++; scanned%checkEvery == 0 {
			if err := s.ctxErr(); err != nil {
				return runs, err
			}
		}
		buf = append(buf, rec)
		if len(buf) == capRecords {
			if err := flush(); err != nil {
				return runs, err
			}
		}
	}
	if err := flush(); err != nil {
		return runs, err
	}
	return runs, nil
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

// mergeRuns repeatedly merges groups of at most SortFanIn() runs until a
// single sorted file remains, then renames/copies it to outPath.  On error
// every intermediate file the merge created is removed, including a
// partially written outPath.
func (s *Sorter[T]) mergeRuns(runs []string, outPath string) error {
	if len(runs) == 0 {
		// An empty input still produces an (empty) output file.
		w, err := recio.NewWriter(outPath, s.codec, s.cfg)
		if err != nil {
			return err
		}
		return w.Close()
	}
	fanIn := s.cfg.SortFanIn()
	if fanIn < 2 {
		fanIn = 2
	}
	// Every path created below is collected so one error path can remove the
	// whole in-flight state; Remove ignores files already consumed.
	var created []string
	fail := func(err error) error {
		removeAll(created, s.cfg)
		blockio.Remove(outPath, s.cfg)
		return err
	}
	current := runs
	for len(current) > 1 {
		if err := s.ctxErr(); err != nil {
			return fail(err)
		}
		s.cfg.Stats.CountMergePass()
		numGroups := (len(current) + fanIn - 1) / fanIn
		next := make([]string, numGroups)
		for gi := range next {
			if numGroups == 1 {
				next[gi] = outPath
			} else {
				next[gi] = blockio.TempFile(s.cfg.TempDir, "extsort-merge", s.cfg.Stats)
				created = append(created, next[gi])
			}
		}
		if err := s.mergePass(current, next, fanIn); err != nil {
			return fail(err)
		}
		current = next
	}
	if current[0] != outPath {
		// Single run: stream-copy it to the destination (charged as one scan).
		if err := s.copyFile(current[0], outPath); err != nil {
			return fail(err)
		}
		removeAll(current, s.cfg)
	}
	return nil
}

// mergePass merges current[gi*fanIn:(gi+1)*fanIn] into next[gi] for every
// group, one group at a time, and removes each consumed group.
func (s *Sorter[T]) mergePass(current, next []string, fanIn int) error {
	for gi := range next {
		if err := s.ctxErr(); err != nil {
			return err
		}
		g := current[gi*fanIn : min((gi+1)*fanIn, len(current))]
		if err := s.mergeGroup(g, next[gi]); err != nil {
			return err
		}
		removeAll(g, s.cfg)
	}
	return nil
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

// mergeGroup merges the sorted run files in group into a single sorted file
// at target.
func (s *Sorter[T]) mergeGroup(group []string, target string) error {
	readers := make([]*recio.Reader[T], len(group))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close()
			}
		}
	}()
	h := &mergeHeap[T]{}
	for i, path := range group {
		r, err := recio.NewReader(path, s.codec, s.cfg)
		if err != nil {
			return err
		}
		readers[i] = r
		rec, err := r.Read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h.items = append(h.items, mergeItem[T]{key: s.key(rec), rec: rec, src: i})
	}
	heap.Init(h)
	w, err := recio.NewWriter(target, s.codec, s.cfg)
	if err != nil {
		return err
	}
	written := 0
	for h.Len() > 0 {
		top := h.peek()
		if written++; written%checkEvery == 0 {
			if err := s.ctxErr(); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Write(top.rec); err != nil {
			w.Close()
			return err
		}
		rec, err := readers[top.src].Read()
		if err == io.EOF {
			heap.Pop(h)
			continue
		}
		if err != nil {
			w.Close()
			return err
		}
		h.fix(mergeItem[T]{key: s.key(rec), rec: rec, src: top.src})
	}
	return w.Close()
}

// copyFile streams the record file at src to dst.
func (s *Sorter[T]) copyFile(src, dst string) error {
	r, err := recio.NewReader(src, s.codec, s.cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = recio.WriteAll(dst, s.codec, s.cfg, r.Iter())
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
