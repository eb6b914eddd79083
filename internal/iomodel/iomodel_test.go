package iomodel

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BlockSize != DefaultBlockSize {
		t.Fatalf("BlockSize = %d, want %d", cfg.BlockSize, DefaultBlockSize)
	}
	if cfg.Memory != DefaultMemory {
		t.Fatalf("Memory = %d, want %d", cfg.Memory, DefaultMemory)
	}
	if cfg.Stats == nil {
		t.Fatal("Stats is nil")
	}
}

func TestValidateFillsDefaults(t *testing.T) {
	cfg, err := Config{}.Validate()
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.BlockSize != DefaultBlockSize || cfg.Memory != DefaultMemory {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Stats == nil {
		t.Fatal("Stats not allocated")
	}
}

func TestValidateRejectsTinyMemory(t *testing.T) {
	_, err := Config{BlockSize: 4096, Memory: 4096}.Validate()
	if err == nil {
		t.Fatal("expected error for M < 2*B")
	}
}

func TestValidateAcceptsExactMinimum(t *testing.T) {
	cfg, err := Config{BlockSize: 4096, Memory: 8192}.Validate()
	if err != nil {
		t.Fatalf("M = 2*B should be accepted: %v", err)
	}
	if cfg.Memory != 8192 {
		t.Fatalf("memory changed: %d", cfg.Memory)
	}
}

func TestNodeCapacity(t *testing.T) {
	cfg := Config{BlockSize: 1024, Memory: 1024 + 8*100}
	if got := cfg.NodeCapacity(); got != 100 {
		t.Fatalf("NodeCapacity = %d, want 100", got)
	}
	zero := Config{BlockSize: 1024, Memory: 512}
	if got := zero.NodeCapacity(); got != 0 {
		t.Fatalf("NodeCapacity = %d, want 0 for memory smaller than a block", got)
	}
}

func TestSortFanIn(t *testing.T) {
	cfg := Config{BlockSize: 1024, Memory: 10 * 1024}
	if got := cfg.SortFanIn(); got != 9 {
		t.Fatalf("SortFanIn = %d, want 9", got)
	}
	small := Config{BlockSize: 1024, Memory: 2048}
	if got := small.SortFanIn(); got != 2 {
		t.Fatalf("SortFanIn = %d, want minimum 2", got)
	}
}

func TestBlocks(t *testing.T) {
	cfg := Config{BlockSize: 100}
	cases := []struct {
		n    int64
		want int64
	}{{0, 0}, {-5, 0}, {1, 1}, {99, 1}, {100, 1}, {101, 2}, {1000, 10}}
	for _, c := range cases {
		if got := cfg.Blocks(c.n); got != c.want {
			t.Errorf("Blocks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestScanAndSortCost(t *testing.T) {
	cfg := Config{BlockSize: 1024, Memory: 8 * 1024}
	if got := cfg.ScanCost(1024, 8); got != 8 {
		t.Fatalf("ScanCost = %d, want 8", got)
	}
	if got := cfg.SortCost(0, 8); got != 0 {
		t.Fatalf("SortCost(0) = %d, want 0", got)
	}
	// Sorting more data always costs at least a scan of it.
	if cfg.SortCost(100000, 8) < cfg.ScanCost(100000, 8) {
		t.Fatal("sort cost below scan cost")
	}
}

func TestStatsCounting(t *testing.T) {
	var s Stats
	s.CountRead(100, false)
	s.CountRead(200, true)
	s.CountWrite(300, false)
	s.CountWrite(400, true)
	s.CountFile()
	s.CountSortRun(10)
	s.CountMergePass()
	s.CountInMemorySolve()
	s.CountSemiExternalRun()
	sn := s.Snapshot()
	if sn.ReadBlocks != 2 || sn.WriteBlocks != 2 {
		t.Fatalf("blocks: %+v", sn)
	}
	if sn.RandomReads != 1 || sn.RandomWrites != 1 || sn.RandomIOs() != 2 {
		t.Fatalf("random: %+v", sn)
	}
	if sn.BytesRead != 300 || sn.BytesWritten != 700 {
		t.Fatalf("bytes: %+v", sn)
	}
	if sn.TotalIOs() != 4 {
		t.Fatalf("TotalIOs = %d", sn.TotalIOs())
	}
	if sn.FilesCreated != 1 || sn.SortRuns != 1 || sn.MergePasses != 1 || sn.RecordsSorted != 10 {
		t.Fatalf("sort counters: %+v", sn)
	}
	if sn.InMemorySolves != 1 || sn.SemiExternalRuns != 1 {
		t.Fatalf("misc counters: %+v", sn)
	}
	s.Reset()
	if s.Snapshot().TotalIOs() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.CountRead(1, true)
	s.CountWrite(1, false)
	s.CountFile()
	s.CountSortRun(1)
	s.CountMergePass()
	s.CountInMemorySolve()
	s.CountSemiExternalRun()
	s.Reset()
	if s.Snapshot() != (Snapshot{}) {
		t.Fatal("nil stats snapshot not zero")
	}
}

func TestStatsConcurrent(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.CountRead(10, j%2 == 0)
				s.CountWrite(10, false)
			}
		}()
	}
	wg.Wait()
	sn := s.Snapshot()
	if sn.ReadBlocks != 8000 || sn.WriteBlocks != 8000 {
		t.Fatalf("lost updates: %+v", sn)
	}
	if sn.RandomReads != 4000 {
		t.Fatalf("random reads = %d, want 4000", sn.RandomReads)
	}
}

func TestSnapshotSubAdd(t *testing.T) {
	a := Snapshot{ReadBlocks: 10, WriteBlocks: 5, RandomReads: 2, BytesRead: 100}
	b := Snapshot{ReadBlocks: 4, WriteBlocks: 1, RandomReads: 1, BytesRead: 30}
	d := a.Sub(b)
	if d.ReadBlocks != 6 || d.WriteBlocks != 4 || d.RandomReads != 1 || d.BytesRead != 70 {
		t.Fatalf("Sub: %+v", d)
	}
	sum := d.Add(b)
	if sum != a {
		t.Fatalf("Add(Sub) != original: %+v vs %+v", sum, a)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{ReadBlocks: 1, WriteBlocks: 2}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSnapshotAddSubProperty(t *testing.T) {
	f := func(r1, w1, r2, w2 uint16) bool {
		a := Snapshot{ReadBlocks: int64(r1), WriteBlocks: int64(w1)}
		b := Snapshot{ReadBlocks: int64(r2), WriteBlocks: int64(w2)}
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksProperty(t *testing.T) {
	cfg := Config{BlockSize: 128}
	f := func(n uint32) bool {
		b := cfg.Blocks(int64(n))
		// Enough blocks to cover n bytes, but no more than one extra block.
		return b*128 >= int64(n) && (b == 0 || (b-1)*128 < int64(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
