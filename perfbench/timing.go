package main

import (
	"sync/atomic"
	"time"

	"extscc/internal/storage"
)

// timedBackend wraps the run's storage backend and accumulates the time
// spent inside it and the calls and bytes that crossed it.  It forwards
// every call unchanged, so the accounting above it (blockio) sees the same
// operations; the traced sample checks that its accounted I/O equals the
// untraced run's.
type timedBackend struct {
	inner storage.Backend

	busy       atomic.Int64 // nanoseconds inside backend and file calls
	reads      atomic.Int64
	writes     atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

func newTimedBackend(inner storage.Backend) *timedBackend { return &timedBackend{inner: inner} }

func (b *timedBackend) since(t time.Time) { b.busy.Add(int64(time.Since(t))) }

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) Create(path string) (storage.File, error) {
	defer b.since(time.Now())
	f, err := b.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, b: b}, nil
}

func (b *timedBackend) Open(path string) (storage.File, error) {
	defer b.since(time.Now())
	f, err := b.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, b: b}, nil
}

func (b *timedBackend) Remove(path string) error {
	defer b.since(time.Now())
	return b.inner.Remove(path)
}

func (b *timedBackend) Rename(oldPath, newPath string) error {
	defer b.since(time.Now())
	return b.inner.Rename(oldPath, newPath)
}

func (b *timedBackend) MkdirTemp(parent, pattern string) (string, error) {
	defer b.since(time.Now())
	return b.inner.MkdirTemp(parent, pattern)
}

func (b *timedBackend) RemoveAll(path string) error {
	defer b.since(time.Now())
	return b.inner.RemoveAll(path)
}

func (b *timedBackend) List(dir string) ([]string, error) { return b.inner.List(dir) }
func (b *timedBackend) TempPath() string                  { return b.inner.TempPath() }

type timedFile struct {
	storage.File
	b *timedBackend
}

func (f *timedFile) Write(p []byte) (int, error) {
	defer f.b.since(time.Now())
	n, err := f.File.Write(p)
	f.b.writes.Add(1)
	f.b.writeBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	defer f.b.since(time.Now())
	n, err := f.File.WriteAt(p, off)
	f.b.writes.Add(1)
	f.b.writeBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	defer f.b.since(time.Now())
	n, err := f.File.ReadAt(p, off)
	f.b.reads.Add(1)
	f.b.readBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Truncate(size int64) error {
	defer f.b.since(time.Now())
	return f.File.Truncate(size)
}

func (f *timedFile) Close() error {
	defer f.b.since(time.Now())
	return f.File.Close()
}
