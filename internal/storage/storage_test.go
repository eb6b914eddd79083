package storage

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// backends returns one instance of every backend; root gives each contract
// case a scratch directory valid for it.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	return map[string]Backend{
		"os":  OS(),
		"mem": NewMem(),
	}
}

// root returns a scratch directory valid for the backend: a real temp dir
// for the OS backend, a fabricated prefix for the in-memory one.
func root(t *testing.T, b Backend) string {
	t.Helper()
	if b.Name() == "os" {
		return t.TempDir()
	}
	dir, err := b.MkdirTemp("", "storage-test-")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestBackendContract(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			dir := root(t, b)
			p := filepath.Join(dir, "a.bin")

			// Open of a missing file is IsNotExist.
			if _, err := b.Open(p); !IsNotExist(err) {
				t.Fatalf("Open(missing) = %v, want not-exist", err)
			}
			if err := b.Remove(p); !IsNotExist(err) {
				t.Fatalf("Remove(missing) = %v, want not-exist", err)
			}

			// Create, append twice, read back via ReadAt.
			f, err := b.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			assertName(t, "Create", f, p)
			if _, err := f.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if size, err := f.Size(); err != nil || size != 11 {
				t.Fatalf("Size = %d, %v; want 11", size, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := b.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			assertName(t, "Open", r, p)
			buf := make([]byte, 5)
			if _, err := r.ReadAt(buf, 6); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "world" {
				t.Fatalf("ReadAt = %q, want \"world\"", buf)
			}
			// Reading past the end yields io.EOF with a short count.
			if n, err := r.ReadAt(buf, 9); err != io.EOF || n != 2 {
				t.Fatalf("ReadAt(past end) = %d, %v; want 2, EOF", n, err)
			}
			if n, err := r.ReadAt(buf, 100); err != io.EOF || n != 0 {
				t.Fatalf("ReadAt(beyond end) = %d, %v; want 0, EOF", n, err)
			}
			r.Close()

			// Rename keeps the bytes, removes the old key.
			p2 := filepath.Join(dir, "b.bin")
			if err := b.Rename(p, p2); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Open(p); !IsNotExist(err) {
				t.Fatalf("old path survived rename: %v", err)
			}
			r2, err := b.Open(p2)
			if err != nil {
				t.Fatal(err)
			}
			if size, err := r2.Size(); err != nil || size != 11 {
				t.Fatalf("renamed Size = %d, %v; want 11", size, err)
			}
			r2.Close()

			// Create truncates an existing file.
			f2, err := b.Create(p2)
			if err != nil {
				t.Fatal(err)
			}
			if size, err := f2.Size(); err != nil || size != 0 {
				t.Fatalf("Create(existing) Size = %d, %v; want 0", size, err)
			}
			f2.Close()

			// The fault wrapper reports the same names as the backend it
			// wraps.
			fb := NewFault(b, nil)
			wf, err := fb.Create(p2)
			if err != nil {
				t.Fatal(err)
			}
			assertName(t, "faulted Create", wf, p2)
			wf.Close()
			wr, err := fb.Open(p2)
			if err != nil {
				t.Fatal(err)
			}
			assertName(t, "faulted Open", wr, p2)
			wr.Close()

			if err := b.Remove(p2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// assertName pins the File.Name contract: a handle reports the path it was
// created or opened under.  recio.Reader.loadFooter reopens a file by its
// reader's Name to read the footer, so a handle naming any other path (a
// resolved or rooted one, say) fails every framed read.
func assertName(t *testing.T, op string, f File, p string) {
	t.Helper()
	if got := f.Name(); got != p {
		t.Fatalf("%s(%q).Name() = %q, want the path it was opened under", op, p, got)
	}
}

func TestBackendWriteAtTruncate(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			dir := root(t, b)
			p := filepath.Join(dir, "arr.bin")
			f, err := b.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.Truncate(16); err != nil {
				t.Fatal(err)
			}
			if size, err := f.Size(); err != nil || size != 16 {
				t.Fatalf("Size after Truncate(16) = %d, %v", size, err)
			}
			// The grown region is zero-filled.
			buf := make([]byte, 16)
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			for i, c := range buf {
				if c != 0 {
					t.Fatalf("byte %d = %d after zero-fill", i, c)
				}
			}
			if _, err := f.WriteAt([]byte{0xAB}, 7); err != nil {
				t.Fatal(err)
			}
			one := make([]byte, 1)
			if _, err := f.ReadAt(one, 7); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if one[0] != 0xAB {
				t.Fatalf("byte 7 = %#x, want 0xAB", one[0])
			}
			// WriteAt past the end grows the file.
			if _, err := f.WriteAt([]byte{1, 2}, 30); err != nil {
				t.Fatal(err)
			}
			if size, err := f.Size(); err != nil || size != 32 {
				t.Fatalf("Size after WriteAt(30) = %d, %v; want 32", size, err)
			}
			if err := f.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if size, err := f.Size(); err != nil || size != 4 {
				t.Fatalf("Size after Truncate(4) = %d, %v", size, err)
			}
		})
	}
}

// TestWriteAppendsAfterTruncate pins the File contract that Write appends at
// EOF even when the handle's seek position sits beyond it.  This is exactly
// the state a torn write rolled back with Truncate leaves an os.File in; a
// Write honouring the stale offset would punch a zero-filled hole into the
// file ("AAAA\x00\x00BBBB") — silent corruption under the CRC-less fixed
// layout.
func TestWriteAppendsAfterTruncate(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			dir := root(t, b)

			// Direct sequence: an over-long append truncated back, then a
			// fresh append, must produce contiguous bytes.
			p := filepath.Join(dir, "direct.bin")
			f, err := b.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("AAAAAA")); err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("BBBB")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(b, p)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "AAAABBBB" {
				t.Fatalf("file after truncate-then-append = %q, want \"AAAABBBB\"", got)
			}

			// The same sequence as the retrying block writer performs it: a
			// torn write persists half the block and fails, the writer rolls
			// back to the flushed length and re-issues the append.
			fb := NewFault(b, NewFaultPlan(&FaultRule{
				Op: OpWrite, N: 2, Count: 1, Mode: ModeTorn,
			}))
			p2 := filepath.Join(dir, "torn.bin")
			tf, err := fb.Create(p2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tf.Write([]byte("AAAA")); err != nil {
				t.Fatal(err)
			}
			if _, err := tf.Write([]byte("BBBB")); !IsTransient(err) {
				t.Fatalf("torn write = %v, want an injected transient error", err)
			}
			if err := tf.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if _, err := tf.Write([]byte("BBBB")); err != nil {
				t.Fatal(err)
			}
			if err := tf.Close(); err != nil {
				t.Fatal(err)
			}
			got, err = ReadFile(b, p2)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "AAAABBBB" {
				t.Fatalf("file after torn-write rollback = %q, want \"AAAABBBB\"", got)
			}
		})
	}
}

func TestBackendMkdirTempAndRemoveAll(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			parent := root(t, b)
			d1, err := b.MkdirTemp(parent, "run-")
			if err != nil {
				t.Fatal(err)
			}
			d2, err := b.MkdirTemp(parent, "run-")
			if err != nil {
				t.Fatal(err)
			}
			if d1 == d2 {
				t.Fatalf("MkdirTemp returned the same path twice: %s", d1)
			}
			p := filepath.Join(d1, "x.bin")
			f, err := b.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("x"))
			f.Close()
			if err := b.RemoveAll(d1); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Open(p); !IsNotExist(err) {
				t.Fatalf("file survived RemoveAll: %v", err)
			}
			// RemoveAll of a missing path is not an error.
			if err := b.RemoveAll(d1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMemBackendIntrospection(t *testing.T) {
	m := NewMem()
	if m.Len() != 0 {
		t.Fatalf("fresh store has %d files", m.Len())
	}
	f, err := m.Create("/mem/a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("abcd"))
	f.Close()
	if m.Len() != 1 || m.BytesHeld() != 4 {
		t.Fatalf("Len=%d BytesHeld=%d, want 1 and 4", m.Len(), m.BytesHeld())
	}
	if paths := m.Paths(); len(paths) != 1 || paths[0] != "/mem/a" {
		t.Fatalf("Paths = %v", paths)
	}
	// A handle opened before a truncating Create keeps the old inode, like
	// an unlinked OS file.
	old, err := m.Open("/mem/a")
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := m.Create("/mem/a")
	f2.Close()
	if size, err := old.Size(); err != nil || size != 4 {
		t.Fatalf("old handle Size = %d, %v; want 4", size, err)
	}
	old.Close()
}

func TestCopyAcrossBackends(t *testing.T) {
	m := NewMem()
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bin")
	f, err := OS().Create(src)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 10000)
	for i := range payload {
		payload[i] = byte(i)
	}
	f.Write(payload)
	f.Close()

	if err := Copy(m, "/mem/in.bin", OS(), src); err != nil {
		t.Fatal(err)
	}
	r, err := m.Open("/mem/in.bin")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	r.Close()
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d differs after Copy", i)
		}
	}

	// And back out again.
	dst := filepath.Join(dir, "out.bin")
	if err := Copy(OS(), dst, m, "/mem/in.bin"); err != nil {
		t.Fatal(err)
	}
	r2, err := OS().Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := r2.Size(); err != nil || size != int64(len(payload)) {
		t.Fatalf("exported Size = %d, %v", size, err)
	}
	r2.Close()
}

func TestByName(t *testing.T) {
	// "" resolves to the process default, whatever EXTSCC_STORAGE selected.
	if b, err := ByName(""); err != nil || b != Default() {
		t.Fatalf("ByName(\"\") = %v, %v; want the process default", b, err)
	}
	if b, err := ByName("os"); err != nil || b.Name() != "os" {
		t.Fatalf("ByName(os) = %v, %v", b, err)
	}
	if b, err := ByName("mem"); err != nil || b.Name() != "mem" {
		t.Fatalf("ByName(mem) = %v, %v", b, err)
	}
	if b, err := ByName("mem"); err != nil || b != Backend(SharedMem()) {
		t.Fatalf("ByName(mem) is not the shared store: %v, %v", b, err)
	}
	if _, err := ByName("tape"); err == nil {
		t.Fatal("ByName(tape) should fail")
	}
	// The retired striping specs and the "memory" alias fail loudly rather
	// than resolve to some other backend.
	for _, spec := range []string{"shard=mem,mem", "shard=os:/x", "memory", "os:/x"} {
		b, err := ByName(spec)
		if err == nil || b != nil {
			t.Errorf("ByName(%q) = %v, %v; want nil backend and an error", spec, b, err)
			continue
		}
		if !strings.Contains(err.Error(), "(known: os, mem)") {
			t.Errorf("ByName(%q) error %q does not list the known backends", spec, err)
		}
	}
}

func TestParse(t *testing.T) {
	t.Run("os", func(t *testing.T) {
		b, err := Parse("os")
		if err != nil || b.Name() != "os" {
			t.Fatalf("Parse(os) = %v, %v", b, err)
		}
	})
	t.Run("mem is the shared store", func(t *testing.T) {
		b, err := Parse("mem")
		if err != nil {
			t.Fatal(err)
		}
		if b != Backend(SharedMem()) {
			t.Fatal("mem should resolve to the process-shared store")
		}
	})
	t.Run("errors keep the backend nil", func(t *testing.T) {
		for _, spec := range []string{"bogus", "", "OS", "mem "} {
			b, err := Parse(spec)
			if err == nil || b != nil {
				t.Errorf("Parse(%q) = %v, %v; want nil backend and an error", spec, b, err)
			}
			if err != nil && !strings.Contains(err.Error(), "storage:") {
				t.Errorf("Parse(%q) error %q not from storage", spec, err)
			}
		}
	})
}
