package extscc

import (
	"context"
	"errors"
	"fmt"
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

// TestLabelOfBothPaths pins LabelOf against LabelMap for every node plus a
// batch of absent ids, on every codec family and both storage backends:
// fixed files seek by offset arithmetic, framed families through the
// frame-index footer.
func TestLabelOfBothPaths(t *testing.T) {
	backends := []struct {
		name string
		b    Storage
	}{
		{"os", OSStorage()},
		{"mem", storage.NewMem()},
	}
	for _, codec := range []string{"fixed", "varint", "compress"} {
		for _, be := range backends {
			t.Run(codec+"/"+be.name, func(t *testing.T) {
				res := lookupResult(t, codec, be.b)
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
// identical across codecs.
func TestLookupLabelsBatch(t *testing.T) {
	for _, codec := range []string{"fixed", "varint", "compress"} {
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
	for _, codec := range []string{"fixed", "varint", "compress"} {
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
	res := lookupResult(t, "compress", OSStorage())
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
