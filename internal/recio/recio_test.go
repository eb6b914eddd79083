package recio

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"extscc/internal/iomodel"
	"extscc/internal/record"
)

func testConfig(t *testing.T) iomodel.Config {
	t.Helper()
	return iomodel.Config{
		BlockSize: 64,
		Memory:    1024,
		TempDir:   t.TempDir(),
		Stats:     &iomodel.Stats{},
	}
}

func TestWriteReadEdges(t *testing.T) {
	cfg := testConfig(t)
	cfg.Codec = record.FamilyFixed // pins the frameless layout: exact Count from the file size
	path := filepath.Join(t.TempDir(), "edges.bin")
	edges := []record.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 1}}

	w, err := NewWriter(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}
	if w.Name() != path {
		t.Fatalf("Name = %q", w.Name())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n, err := r.Count(); err != nil || n != 3 {
		t.Fatalf("reader Count = %d, %v", n, err)
	}
	for i, want := range edges {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsTruncatedFile(t *testing.T) {
	cfg := testConfig(t)
	path := filepath.Join(t.TempDir(), "bad.bin")
	f, err := cfg.Backend().Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 10)); err != nil { // not a multiple of 8
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(path, record.EdgeCodec{}, cfg); err == nil {
		t.Fatal("expected error for truncated file")
	}
}

func TestSeekToRecord(t *testing.T) {
	cfg := testConfig(t)
	cfg.Codec = record.FamilyFixed // SeekTo needs the record-indexed fixed layout
	path := filepath.Join(t.TempDir(), "seek.bin")
	var edges []record.Edge
	for i := uint32(0); i < 100; i++ {
		edges = append(edges, record.Edge{U: i, V: i + 1})
	}
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.SeekTo(42); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.U != 42 {
		t.Fatalf("Seek(42) read %+v", got)
	}
}

func TestWriteAllAndReadAll(t *testing.T) {
	cfg := testConfig(t)
	path := filepath.Join(t.TempDir(), "all.bin")
	labels := []record.Label{{Node: 1, SCC: 1}, {Node: 2, SCC: 1}, {Node: 3, SCC: 3}}
	n, err := WriteAll(path, record.LabelCodec{}, cfg, NewSliceIterator(labels))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("WriteAll = %d", n)
	}
	got, err := ReadAll(path, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ReadAll len = %d", len(got))
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("record %d = %+v", i, got[i])
		}
	}
	cnt, err := CountRecords(path, record.LabelCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 3 {
		t.Fatalf("CountRecords = %d", cnt)
	}
}

func TestEmptyFile(t *testing.T) {
	cfg := testConfig(t)
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d records", len(got))
	}
}

func TestIteratorAdapters(t *testing.T) {
	cfg := testConfig(t)
	path := filepath.Join(t.TempDir(), "it.bin")
	nodes := []record.NodeID{5, 6, 7}
	if err := WriteSlice(path, record.NodeCodec{}, cfg, nodes); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(path, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.Iter()
	var got []record.NodeID
	for {
		n, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, n)
	}
	if len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Fatalf("iterator read %v", got)
	}
}

func TestPeekable(t *testing.T) {
	it := NewPeekable[int](NewSliceIterator([]int{10, 20, 30}))
	if !it.Valid() || it.Peek() != 10 {
		t.Fatalf("Peek = %d valid=%v", it.Peek(), it.Valid())
	}
	if got := it.Pop(); got != 10 {
		t.Fatalf("Pop = %d", got)
	}
	if it.Peek() != 20 {
		t.Fatalf("Peek after pop = %d", it.Peek())
	}
	it.Pop()
	it.Pop()
	if it.Valid() {
		t.Fatal("iterator should be exhausted")
	}
	if it.Err() != nil {
		t.Fatalf("Err = %v", it.Err())
	}
}

func TestPeekableEmpty(t *testing.T) {
	it := NewPeekable[int](NewSliceIterator[int](nil))
	if it.Valid() {
		t.Fatal("empty iterator should not be valid")
	}
}

func TestRoundTripProperty(t *testing.T) {
	cfg := testConfig(t)
	dir := t.TempDir()
	idx := 0
	f := func(us, vs []uint32) bool {
		idx++
		n := len(us)
		if len(vs) < n {
			n = len(vs)
		}
		edges := make([]record.Edge, n)
		for i := 0; i < n; i++ {
			edges[i] = record.Edge{U: us[i], V: vs[i]}
		}
		path := filepath.Join(dir, filepath.Base(blockioTemp(idx)))
		if err := WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
			return false
		}
		got, err := ReadAll(path, record.EdgeCodec{}, cfg)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func blockioTemp(i int) string {
	return filepath.Join(os.TempDir(), "prop-"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+".bin")
}
