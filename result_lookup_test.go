package extscc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"extscc/internal/blockio"
	"extscc/internal/graphgen"
	"extscc/internal/storage"
)

// lookupResult runs the engine over a random graph (many components of mixed
// size) with the given codec and backend.
func lookupResult(t *testing.T, codec string, b Storage) *Result {
	t.Helper()
	eng, err := New(
		WithStorage(b),
		WithCodec(codec),
		WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), SliceSource(graphgen.Random(400, 900, 42)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lookupBackends are the storage backends the lookup tests run on.
var lookupBackends = []struct {
	name string
	b    func() Storage
}{
	{"os", OSStorage},
	{"mem", func() Storage { return storage.NewMem() }},
}

// multiFrameResult runs the engine at a 256-byte block size, so the label
// file spans dozens of frames (varint) or blocks (fixed).  The
// graph's ids run from 50 to 1549 and leave some of them unlabelled, so
// there are absent ids below, inside and above the labelled range.
func multiFrameResult(t *testing.T, codec string, b Storage) *Result {
	t.Helper()
	edges := graphgen.Random(1500, 1700, 11)
	for i := range edges {
		edges[i].U += 50
		edges[i].V += 50
	}
	eng, err := New(WithStorage(b), WithCodec(codec), WithBlockSize(256), WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), SliceSource(edges))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// frameEnds returns the nodes of the first and last label of every frame of
// res's label file, read off its frame-index footer — of every block on a
// fixed file, which has no footer.  It fails the test unless there are at
// least 10 frames.
func frameEnds(t *testing.T, res *Result, labels []Label) []NodeID {
	t.Helper()
	br, err := blockio.NewReader(res.LabelPath, res.cfg)
	if err != nil {
		t.Fatal(err)
	}
	footer, framed, err := blockio.ReadFooter(br)
	br.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ranges [][2]int64 // [first, last] record index
	if framed {
		for _, e := range footer.Entries {
			ranges = append(ranges, [2]int64{e.FirstRecord, e.FirstRecord + int64(e.Count) - 1})
		}
	} else {
		perBlock := int64(res.cfg.BlockSize / 8)
		for i := int64(0); i < int64(len(labels)); i += perBlock {
			ranges = append(ranges, [2]int64{i, min(i+perBlock, int64(len(labels))) - 1})
		}
	}
	if len(ranges) < 10 {
		t.Fatalf("label file has %d frames, want >= 10", len(ranges))
	}
	var ends []NodeID
	for _, r := range ranges {
		ends = append(ends, labels[r[0]].Node, labels[r[1]].Node)
	}
	return ends
}

// TestLabelOfBothPaths pins LabelOf against LabelMap for every node plus a
// batch of absent ids, on every codec family and both storage backends:
// fixed files seek by offset arithmetic, framed families through the
// frame-index footer.  The B256 leg repeats it on a label file of many
// frames, for every id from 0 to past the last label and at every frame's
// first and last label.
func TestLabelOfBothPaths(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		for _, be := range lookupBackends {
			t.Run("B256/"+codec+"/"+be.name, func(t *testing.T) {
				res := multiFrameResult(t, codec, be.b())
				defer res.Close()
				labels, err := res.Labels()
				if err != nil {
					t.Fatal(err)
				}
				want, err := res.LabelMap()
				if err != nil {
					t.Fatal(err)
				}
				first, last := labels[0].Node, labels[len(labels)-1].Node
				if first == 0 || len(want) > int(last-first) {
					t.Fatalf("labels %d..%d (%d of them) leave no absent id below or inside the range", first, last, len(want))
				}
				check := func(n NodeID) {
					t.Helper()
					got, ok, err := res.LabelOf(n)
					wantSCC, wantOK := want[n]
					if err != nil || ok != wantOK || got != wantSCC {
						t.Fatalf("LabelOf(%d) = (%d, %v, %v), want (%d, %v, nil)", n, got, ok, err, wantSCC, wantOK)
					}
				}
				for n := NodeID(0); n <= last+50; n++ {
					check(n)
				}
				for _, n := range frameEnds(t, res, labels) {
					check(n)
				}
				for _, n := range []NodeID{1 << 30, ^NodeID(0)} {
					check(n)
				}
			})
		}
	}
	for _, codec := range []string{"fixed", "varint"} {
		for _, be := range lookupBackends {
			t.Run(codec+"/"+be.name, func(t *testing.T) {
				res := lookupResult(t, codec, be.b())
				defer res.Close()
				want, err := res.LabelMap()
				if err != nil {
					t.Fatal(err)
				}
				for node, scc := range want {
					got, ok, err := res.LabelOf(node)
					if err != nil {
						t.Fatalf("LabelOf(%d): %v", node, err)
					}
					if !ok || got != scc {
						t.Fatalf("LabelOf(%d) = (%d, %v), want (%d, true)", node, got, ok, scc)
					}
				}
				for _, absent := range []NodeID{5000, 1 << 30, ^NodeID(0)} {
					if _, ok, err := res.LabelOf(absent); err != nil || ok {
						t.Fatalf("LabelOf(absent %d) = (_, %v, %v), want (_, false, nil)", absent, ok, err)
					}
				}
			})
		}
	}
}

// TestLookupLabelsBatch pins the batched sweep: duplicates collapse, absent
// nodes are omitted, present nodes match LabelMap, and the result is
// identical across codecs.  The B256 leg asks one unsorted batch, with
// duplicates and absent ids, that touches every frame of a many-frame label
// file.
func TestLookupLabelsBatch(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		for _, be := range lookupBackends {
			t.Run("B256/"+codec+"/"+be.name, func(t *testing.T) {
				res := multiFrameResult(t, codec, be.b())
				defer res.Close()
				labels, err := res.Labels()
				if err != nil {
					t.Fatal(err)
				}
				want, err := res.LabelMap()
				if err != nil {
					t.Fatal(err)
				}
				last := labels[len(labels)-1].Node
				batch := frameEnds(t, res, labels)
				for n := NodeID(0); n <= last+50; n += 7 {
					batch = append(batch, n, n)
				}
				batch = append(batch, 1<<30, ^NodeID(0))
				rand.New(rand.NewSource(5)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				got, err := res.LookupLabels(batch)
				if err != nil {
					t.Fatal(err)
				}
				expect := map[NodeID]uint32{}
				for _, n := range batch {
					if scc, ok := want[n]; ok {
						expect[n] = scc
					}
				}
				if !maps.Equal(got, expect) {
					t.Fatalf("LookupLabels returned %d entries, want %d (or they differ)", len(got), len(expect))
				}
			})
		}
	}
	for _, codec := range []string{"fixed", "varint"} {
		t.Run(codec, func(t *testing.T) {
			res := lookupResult(t, codec, OSStorage())
			defer res.Close()
			want, err := res.LabelMap()
			if err != nil {
				t.Fatal(err)
			}
			// An unsorted batch with duplicates and misses.
			batch := []NodeID{399, 0, 17, 17, 350, 9999, 1, 0, 123456}
			got, err := res.LookupLabels(batch)
			if err != nil {
				t.Fatal(err)
			}
			expect := map[NodeID]uint32{}
			for _, n := range batch {
				if scc, ok := want[n]; ok {
					expect[n] = scc
				}
			}
			if len(got) != len(expect) {
				t.Fatalf("LookupLabels returned %d entries, want %d", len(got), len(expect))
			}
			for n, scc := range expect {
				if got[n] != scc {
					t.Fatalf("LookupLabels[%d] = %d, want %d", n, got[n], scc)
				}
			}
			// An empty batch is a no-op, not an error.
			if m, err := res.LookupLabels(nil); err != nil || len(m) != 0 {
				t.Fatalf("LookupLabels(nil) = (%v, %v)", m, err)
			}
		})
	}
}

// TestLabelOfConcurrent hammers LabelOf from many goroutines (meaningful
// under -race): the lazy init must be safe and every answer correct.
func TestLabelOfConcurrent(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		t.Run(codec, func(t *testing.T) {
			res := lookupResult(t, codec, OSStorage())
			defer res.Close()
			want, err := res.LabelMap()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errc := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						n := NodeID((seed*211 + i*13) % 450) // some absent
						scc, ok, err := res.LabelOf(n)
						if err != nil {
							errc <- err
							return
						}
						wantSCC, wantOK := want[n]
						if ok != wantOK || (ok && scc != wantSCC) {
							errc <- fmt.Errorf("LabelOf(%d) = (%d, %v), want (%d, %v)", n, scc, ok, wantSCC, wantOK)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
		})
	}
}

// TestLookupReadFaultDropsReader pins that a read error never poisons the
// label reader a Result holds.  A one-shot transient read fault (at
// WithRetry(0)) is put, in turn, on each read that a sequence of lookups
// makes of the label file — its head, its footer, its frames or blocks — and
// at every position exactly one lookup fails with ErrInjected while every
// other lookup, and the repeat of the failed one, answers correctly.
func TestLookupReadFaultDropsReader(t *testing.T) {
	for _, codec := range []string{"fixed", "varint"} {
		t.Run(codec, func(t *testing.T) {
			// run computes the labelling on a faulting mem backend and moves
			// the label file to a name that only the lookups read.
			run := func(plan *storage.FaultPlan) *Result {
				t.Helper()
				eng, err := New(
					WithStorage(storage.NewFault(storage.NewMem(), plan)),
					WithCodec(codec), WithBlockSize(256), WithRetry(0),
				)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(context.Background(), SliceSource(graphgen.Random(400, 900, 42)))
				if err != nil {
					t.Fatal(err)
				}
				if err := res.ExportLabels("/mem/out/flaky.labels"); err != nil {
					t.Fatal(err)
				}
				return res
			}
			clean := storage.NewFaultPlan()
			res := run(clean)
			want, err := res.LabelMap()
			if err != nil {
				t.Fatal(err)
			}
			labels, err := res.Labels()
			if err != nil {
				t.Fatal(err)
			}
			last := labels[len(labels)-1].Node
			gap := labels[0].Node // the first unlabelled id inside the range
			for _, ok := want[gap]; ok; _, ok = want[gap] {
				gap++
			}
			if gap > last {
				t.Fatalf("labels %d..%d leave no id unlabelled", labels[0].Node, last)
			}
			seq := []NodeID{
				labels[0].Node, labels[len(labels)/2].Node, gap, last, 5000, labels[len(labels)/4].Node,
			}
			check := func(res *Result, n NodeID, failed *int) {
				t.Helper()
				scc, ok, err := res.LabelOf(n)
				if failed != nil && errors.Is(err, storage.ErrInjected) {
					*failed++
					scc, ok, err = res.LabelOf(n)
				}
				wantSCC, wantOK := want[n]
				if err != nil || ok != wantOK || scc != wantSCC {
					t.Fatalf("LabelOf(%d) = (%d, %v, %v), want (%d, %v, nil)", n, scc, ok, err, wantSCC, wantOK)
				}
			}
			before := clean.OpCount(storage.OpRead)
			for _, n := range seq {
				check(res, n, nil)
			}
			reads := clean.OpCount(storage.OpRead) - before
			res.Close()
			if reads < 3 {
				t.Fatalf("the lookups read the label file %d times, want at least the head, footer and a frame", reads)
			}
			for k := int64(1); k <= reads; k++ {
				res := run(storage.NewFaultPlan(&storage.FaultRule{
					Op: storage.OpRead, Path: "flaky", N: k, Count: 1, Mode: storage.ModeTransient,
				}))
				failed := 0
				for _, n := range seq {
					check(res, n, &failed)
				}
				res.Close()
				if failed != 1 {
					t.Fatalf("fault at read %d of %d: %d lookups failed, want 1", k, reads, failed)
				}
			}
		})
	}
}

// TestLookupAcrossExportAndClose pins the held reader's lifecycle: a lookup
// opens it, ExportLabels closes it before moving the file so that later
// lookups read the exported file, and Close releases it, after which a
// lookup fails instead of answering from a stale handle.
func TestLookupAcrossExportAndClose(t *testing.T) {
	for _, be := range lookupBackends {
		t.Run(be.name, func(t *testing.T) {
			b := be.b()
			res := multiFrameResult(t, "varint", b)
			defer res.Close()
			want, err := res.LabelMap()
			if err != nil {
				t.Fatal(err)
			}
			check := func(res *Result, n NodeID) {
				t.Helper()
				scc, ok, err := res.LabelOf(n)
				wantSCC, wantOK := want[n]
				if err != nil || ok != wantOK || scc != wantSCC {
					t.Fatalf("LabelOf(%d) = (%d, %v, %v), want (%d, %v, nil)", n, scc, ok, err, wantSCC, wantOK)
				}
			}
			check(res, 700)
			out := filepath.Join(t.TempDir(), "exported.labels")
			if err := res.ExportLabels(out); err != nil {
				t.Fatal(err)
			}
			if res.labels != nil {
				t.Fatal("ExportLabels kept the label reader open")
			}
			for n := NodeID(0); n < 1600; n++ {
				check(res, n)
			}
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if res.labels != nil {
				t.Fatal("Close kept the label reader of an exported result open")
			}
			if _, _, err := res.LabelOf(700); err == nil {
				t.Fatal("lookup after Close of an exported result answered")
			}

			// Without an export the label file goes with the run directory.
			kept := multiFrameResult(t, "varint", b)
			check(kept, 700)
			if err := kept.Close(); err != nil {
				t.Fatal(err)
			}
			if kept.labels != nil {
				t.Fatal("Close kept the label reader open")
			}
			for _, n := range []NodeID{700, 701, 5} {
				if scc, ok, err := kept.LabelOf(n); err == nil {
					t.Fatalf("LabelOf(%d) after Close = (%d, %v), want an error", n, scc, ok)
				}
			}
			if err := kept.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestFooterlessLabelLookupFailsTyped pins that a framed label file cut
// before its frame-index footer fails every lookup with ErrCorrupt instead of
// answering: a framed file always ends in its footer.
func TestFooterlessLabelLookupFailsTyped(t *testing.T) {
	res := lookupResult(t, "varint", OSStorage())
	defer res.Close()
	backend := res.cfg.Backend()
	data, err := storage.ReadFile(backend, res.LabelPath)
	if err != nil {
		t.Fatal(err)
	}
	flen, ok, detail := blockio.ParseFooterTrailer(data[len(data)-blockio.FooterTrailerSize:])
	if !ok || detail != "" {
		t.Fatalf("label file carries no footer to strip (ok=%v, %q)", ok, detail)
	}
	f, err := backend.Create(res.LabelPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)-flen]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.LabelOf(17); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LabelOf on a footerless label file: %v, want ErrCorrupt", err)
	}
	if _, err := res.LookupLabels([]NodeID{0, 17}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LookupLabels on a footerless label file: %v, want ErrCorrupt", err)
	}
}

// TestFramedLookupAllocationBounded is the memory-cliff regression gate: point
// lookups on a footer-indexed framed labelling must allocate a bounded amount
// per call (reader buffers, one footer), whatever the labelling's size.
func TestFramedLookupAllocationBounded(t *testing.T) {
	res := lookupResult(t, "varint", OSStorage())
	defer res.Close()
	if _, _, err := res.LabelOf(7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := res.LabelOf(123); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Fatalf("LabelOf allocates %.0f objects per call; the seek path is bounded well under 500", allocs)
	}
}

// TestResultEdgeNodePaths pins the new Result fields: both point at readable
// files inside the run directory and disappear on Close.
func TestResultEdgeNodePaths(t *testing.T) {
	res := lookupResult(t, "", OSStorage())
	if res.EdgePath == "" || res.NodePath == "" {
		t.Fatalf("Result paths missing: edge=%q node=%q", res.EdgePath, res.NodePath)
	}
	backend := res.cfg.Backend()
	for _, p := range []string{res.EdgePath, res.NodePath, res.LabelPath} {
		f, err := backend.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		f.Close()
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Open(res.EdgePath); err == nil {
		t.Fatal("EdgePath still readable after Close")
	}
}

// BenchmarkLookupLabels measures what an LRU miss costs the serving path: a
// LookupLabels batch of 2 random ids over serve-large's labelling (Large-SCC
// at scale 1000 and seed 1: 99,969 labels, the default varint codec, 64 KiB
// blocks, OS storage).
func BenchmarkLookupLabels(b *testing.B) {
	eng, err := New(WithStorage(OSStorage()), WithTempDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(context.Background(), GeneratorSource(GeneratorSpec{Kind: "large", Scale: 1000, Seed: 1}))
	if err != nil {
		b.Fatal(err)
	}
	defer res.Close()
	rng := rand.New(rand.NewSource(1))
	batch := make([]NodeID, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = NodeID(rng.Int63n(res.NumNodes))
		}
		if _, err := res.LookupLabels(batch); err != nil {
			b.Fatal(err)
		}
	}
}
