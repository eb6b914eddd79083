package extsort

import (
	"strings"
	"sync"

	"extscc/internal/storage"
)

// OpenTracker wraps a storage backend and follows the files of package
// extsort: how many runs are open for reading, the peak of that count, and
// how many runs were created while another run was open for reading.
type OpenTracker struct {
	storage.Backend

	mu            sync.Mutex
	open, peak    int
	runsWhileOpen int
}

// isSortFile reports whether path names a run or a merge output.
func isSortFile(path string) bool {
	return strings.Contains(path, "extsort-run") || strings.Contains(path, "extsort-merge")
}

// Open counts a sort file until its handle is closed.
func (b *OpenTracker) Open(path string) (storage.File, error) {
	f, err := b.Backend.Open(path)
	if err != nil || !isSortFile(path) {
		return f, err
	}
	b.mu.Lock()
	b.open++
	b.peak = max(b.peak, b.open)
	b.mu.Unlock()
	return &trackedFile{File: f, b: b}, nil
}

// Create notes a run created while a sort file is open for reading: a
// stream over a merge that feeds another sort's run formation.
func (b *OpenTracker) Create(path string) (storage.File, error) {
	b.mu.Lock()
	if strings.Contains(path, "extsort-run") && b.open > 0 {
		b.runsWhileOpen++
	}
	b.mu.Unlock()
	return b.Backend.Create(path)
}

// Opened returns the number of sort files open for reading now.
func (b *OpenTracker) Opened() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Peak returns the most sort files ever open for reading at once, and
// resets it to the current count.
func (b *OpenTracker) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peak
	b.peak = b.open
	return p
}

// RunsWhileOpen returns how many runs were created while a sort file was
// open for reading.
func (b *OpenTracker) RunsWhileOpen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runsWhileOpen
}

type trackedFile struct {
	storage.File
	b      *OpenTracker
	closed bool
}

func (f *trackedFile) Close() error {
	if !f.closed {
		f.closed = true
		f.b.mu.Lock()
		f.b.open--
		f.b.mu.Unlock()
	}
	return f.File.Close()
}
