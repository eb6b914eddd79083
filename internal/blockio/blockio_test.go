package blockio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"extscc/internal/iomodel"
	"extscc/internal/storage"
)

func testConfig(t *testing.T, blockSize int) iomodel.Config {
	t.Helper()
	return iomodel.Config{
		BlockSize: blockSize,
		Memory:    int64(4 * blockSize),
		TempDir:   t.TempDir(),
		Stats:     &iomodel.Stats{},
	}
}

// writeRaw stages raw bytes at path on cfg's storage backend (the
// backend-agnostic analogue of os.WriteFile).
func writeRaw(t *testing.T, cfg iomodel.Config, path string, data []byte) {
	t.Helper()
	f, err := cfg.Backend().Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := testConfig(t, 64)
	path := filepath.Join(t.TempDir(), "data.bin")
	payload := bytes.Repeat([]byte("abcdefgh"), 100) // 800 bytes, not a multiple of 64

	w, err := NewWriter(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if got := w.BytesWritten(); got != int64(len(payload)) {
		t.Fatalf("BytesWritten = %d, want %d", got, len(payload))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(payload))
	}
	got := make([]byte, len(payload))
	if err := r.ReadFull(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	if err := r.ReadFull(make([]byte, 1)); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestWriterCountsBlocks(t *testing.T) {
	cfg := testConfig(t, 100)
	path := filepath.Join(t.TempDir(), "blocks.bin")
	w, err := NewWriter(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 250 bytes => 2 full blocks + 1 partial block on close.
	if _, err := w.Write(make([]byte, 250)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sn := cfg.Stats.Snapshot()
	if sn.WriteBlocks != 3 {
		t.Fatalf("WriteBlocks = %d, want 3", sn.WriteBlocks)
	}
	if sn.BytesWritten != 250 {
		t.Fatalf("BytesWritten = %d, want 250", sn.BytesWritten)
	}
	if sn.RandomWrites != 0 {
		t.Fatalf("sequential writes counted as random: %d", sn.RandomWrites)
	}
}

func TestReaderCountsSequentialBlocks(t *testing.T) {
	cfg := testConfig(t, 100)
	path := filepath.Join(t.TempDir(), "seq.bin")
	writeRaw(t, cfg, path, make([]byte, 1000))
	r, err := NewReader(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReadFull(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	sn := cfg.Stats.Snapshot()
	if sn.ReadBlocks != 10 {
		t.Fatalf("ReadBlocks = %d, want 10", sn.ReadBlocks)
	}
	if sn.RandomReads != 0 {
		t.Fatalf("RandomReads = %d, want 0 for a pure sequential scan", sn.RandomReads)
	}
}

func TestSeekCountsRandomRead(t *testing.T) {
	cfg := testConfig(t, 100)
	path := filepath.Join(t.TempDir(), "rand.bin")
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	writeRaw(t, cfg, path, data)
	r, err := NewReader(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	buf := make([]byte, 10)
	if err := r.ReadFull(buf); err != nil { // block 0, sequential (first read)
		t.Fatal(err)
	}
	if err := r.SeekTo(500); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadFull(buf); err != nil { // block at 500, random
		t.Fatal(err)
	}
	if buf[0] != data[500] {
		t.Fatalf("seek read wrong data: %d", buf[0])
	}
	if off := r.Offset(); off != 510 {
		t.Fatalf("Offset = %d, want 510", off)
	}
	sn := cfg.Stats.Snapshot()
	if sn.ReadBlocks != 2 {
		t.Fatalf("ReadBlocks = %d, want 2", sn.ReadBlocks)
	}
	if sn.RandomReads != 1 {
		t.Fatalf("RandomReads = %d, want 1", sn.RandomReads)
	}
}

func TestSeekBackToSequentialPositionIsNotRandom(t *testing.T) {
	cfg := testConfig(t, 100)
	path := filepath.Join(t.TempDir(), "seq2.bin")
	writeRaw(t, cfg, path, make([]byte, 300))
	r, err := NewReader(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReadFull(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// Seeking to exactly the next block keeps the access sequential.
	if err := r.SeekTo(100); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadFull(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if sn := cfg.Stats.Snapshot(); sn.RandomReads != 0 {
		t.Fatalf("RandomReads = %d, want 0", sn.RandomReads)
	}
}

func TestReaderClosedErrors(t *testing.T) {
	cfg := testConfig(t, 64)
	path := filepath.Join(t.TempDir(), "c.bin")
	writeRaw(t, cfg, path, []byte("hello"))
	r, err := NewReader(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("double close should be nil, got %v", err)
	}
	if _, err := r.Read(make([]byte, 1)); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	if err := r.SeekTo(0); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestWriterClosedErrors(t *testing.T) {
	cfg := testConfig(t, 64)
	path := filepath.Join(t.TempDir(), "w.bin")
	w, err := NewWriter(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close should be nil, got %v", err)
	}
	if _, err := w.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestNewReaderMissingFile(t *testing.T) {
	cfg := testConfig(t, 64)
	if _, err := NewReader(filepath.Join(t.TempDir(), "missing.bin"), cfg); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSeekNegative(t *testing.T) {
	cfg := testConfig(t, 64)
	path := filepath.Join(t.TempDir(), "n.bin")
	writeRaw(t, cfg, path, []byte("hello"))
	r, err := NewReader(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.SeekTo(-1); err == nil {
		t.Fatal("expected error for negative seek")
	}
}

func TestTempFileUnique(t *testing.T) {
	stats := &iomodel.Stats{}
	dir := t.TempDir()
	a := TempFile(dir, "x", stats)
	b := TempFile(dir, "x", stats)
	if a == b {
		t.Fatal("TempFile returned duplicate paths")
	}
	if filepath.Dir(a) != dir {
		t.Fatalf("TempFile ignored dir: %s", a)
	}
	if stats.Snapshot().FilesCreated != 2 {
		t.Fatalf("FilesCreated = %d, want 2", stats.Snapshot().FilesCreated)
	}
	if def := TempFile("", "y", stats); filepath.Dir(def) != os.TempDir() {
		t.Fatalf("empty dir should use system temp: %s", def)
	}
}

func TestRemoveMissingIsNil(t *testing.T) {
	cfg := testConfig(t, 64)
	if err := Remove(filepath.Join(t.TempDir(), "nope.bin"), cfg); err != nil {
		t.Fatalf("Remove missing file: %v", err)
	}
}

func TestRemoveExisting(t *testing.T) {
	cfg := testConfig(t, 64)
	path := filepath.Join(t.TempDir(), "gone.bin")
	writeRaw(t, cfg, path, []byte("x"))
	if err := Remove(path, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Backend().Open(path); !storage.IsNotExist(err) {
		t.Fatalf("file still exists: %v", err)
	}
}

// TestTempNamerCrossProcessUnique is the regression test for the temp-name
// collision risk: two fresh namers stand in for two processes sharing one
// TempDir — their sequence counters advance in lockstep, so without the
// per-process random prefix every generated pair would collide.
func TestTempNamerCrossProcessUnique(t *testing.T) {
	a, b := newTempNamer(), newTempNamer()
	if a.prefix == "" || b.prefix == "" {
		t.Fatal("tempNamer has no random prefix")
	}
	if a.prefix == b.prefix {
		t.Fatalf("two fresh namers drew the same prefix %q", a.prefix)
	}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		for _, n := range []*tempNamer{a, b} {
			p := n.path("/shared/tmp", "run")
			if seen[p] {
				t.Fatalf("duplicate temp path %q across namers", p)
			}
			seen[p] = true
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := testConfig(t, 32)
	dir := t.TempDir()
	i := 0
	f := func(data []byte) bool {
		i++
		path := filepath.Join(dir, TempFile("", "prop", cfg.Stats))
		path = filepath.Join(dir, filepath.Base(path))
		w, err := NewWriter(path, cfg)
		if err != nil {
			return false
		}
		if _, err := w.Write(data); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(path, cfg)
		if err != nil {
			return false
		}
		defer r.Close()
		got := make([]byte, len(data))
		if len(data) > 0 {
			if err := r.ReadFull(got); err != nil {
				return false
			}
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamsRunOnCallerGoroutine pins that block streams do their I/O on
// the caller's goroutine, whatever worker count the configuration carries:
// with a Writer and a Reader open mid-way through multi-block files, no
// goroutine beyond the test's own exists (a prefetcher or a write-behind
// flusher would show up here).
func TestStreamsRunOnCallerGoroutine(t *testing.T) {
	cfg := testConfig(t, 64)
	cfg.Workers = 4
	payload := bytes.Repeat([]byte("abcdefgh"), 200) // 25 blocks of 64
	src := filepath.Join(t.TempDir(), "src.bin")
	writeRaw(t, cfg, src, payload)
	base := runtime.NumGoroutine()

	w, err := NewWriter(filepath.Join(t.TempDir(), "dst.bin"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write(payload[:300]); err != nil { // flushes 4 blocks
		t.Fatal(err)
	}
	r, err := NewReader(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReadFull(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines run with a Writer and a Reader open, %d before", n, base)
	}
}
