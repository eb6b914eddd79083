// Package storage abstracts where the repository's block-oriented files
// live.  Every byte the external algorithms read or write flows through a
// Backend: package blockio opens its block readers and writers on Backend
// files, and the run-directory lifecycle (engine run dirs, temp cleanup)
// goes through the same interface.  The I/O *accounting* stays above this
// layer — blockio charges iomodel.Stats per block regardless of the backend
// — which is what makes the mem ≡ os equivalence guarantee possible: the
// same algorithm performs the identical accounted I/Os against RAM and
// against the local filesystem.
//
// Two backends ship today: the OS backend (local files, the historical
// behaviour) and the in-memory backend (a lock-protected block store for
// tests, diskless serving and benchmarks).  Remote stores plug in by
// implementing Backend.
package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// File is a random-access handle to one stored file.  Write appends at the
// end of the file (the sequential-writer path of blockio); ReadAt and
// WriteAt address absolute offsets (block readers and the baseline's disk
// arrays).  A File is not safe for concurrent use unless stated otherwise
// by the backend.
type File interface {
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Truncate resizes the file to size bytes, zero-filling on growth.
	Truncate(size int64) error
	// Size reports the current length of the file in bytes.
	Size() (int64, error)
	// Name returns the path the file was opened under.
	Name() string
}

// Backend is a flat block-file store.  Paths are opaque slash-separated
// keys; the OS backend maps them onto the local filesystem, the in-memory
// backend treats them as dictionary keys.  All methods are safe for
// concurrent use.
type Backend interface {
	// Name identifies the backend ("os", "mem") for flags and logs.
	Name() string
	// Create makes (truncating) the file at path and opens it read-write.
	Create(path string) (File, error)
	// Open opens an existing file for reading.  A missing file yields an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	Open(path string) (File, error)
	// Remove deletes the file at path.  A missing file yields an error
	// satisfying errors.Is(err, fs.ErrNotExist).
	Remove(path string) error
	// Rename atomically moves a file; the paper's cost model treats it as
	// free (metadata only), and every backend must keep it I/O-free.
	Rename(oldPath, newPath string) error
	// MkdirTemp creates a fresh uniquely-named directory under parent
	// (backend TempDir when parent is empty) and returns its path.
	MkdirTemp(parent, pattern string) (string, error)
	// RemoveAll removes path and everything beneath it; a missing path is
	// not an error.
	RemoveAll(path string) error
	// List returns the paths of every file stored beneath dir, sorted.  A
	// missing or empty directory yields an empty slice (backends without
	// real directories cannot tell the two apart).
	List(dir string) ([]string, error)
	// TempPath returns the backend's default directory for temporary files.
	TempPath() string
}

// envVar selects the process-wide default backend; see Default.
const envVar = "EXTSCC_STORAGE"

// faultEnvVar injects faults into every backend resolved by name or default;
// see ParseFaultSpec for the grammar.  CLIs and CI inherit fault injection
// through it without code changes.
const faultEnvVar = "EXTSCC_FAULT"

// envFaultOnce parses EXTSCC_FAULT once; the single plan is shared by every
// wrapped backend so its op counters are process-global.
var envFaultOnce = sync.OnceValues(func() (*FaultPlan, error) {
	spec := os.Getenv(faultEnvVar)
	if spec == "" {
		return nil, nil
	}
	plan, err := ParseFaultSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("invalid %s environment variable: %w", faultEnvVar, err)
	}
	return plan, nil
})

// withEnvFault wraps b in the EXTSCC_FAULT plan when the variable is set.
func withEnvFault(b Backend) (Backend, error) {
	plan, err := envFaultOnce()
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return b, nil
	}
	return NewFault(b, plan), nil
}

var defaultOnce = sync.OnceValues(func() (Backend, error) {
	name := os.Getenv(envVar)
	if name == "" {
		return withEnvFault(OS())
	}
	return Parse(name)
})

// Default returns the process-wide default backend: the OS backend, unless
// the EXTSCC_STORAGE environment variable selects another one ("mem" runs
// the whole process against a single shared in-memory store, which is how
// CI runs the test suite once per backend).  An unknown value panics on the
// first use: the variable is an explicit operator instruction, and falling
// back silently would e.g. let a mistyped CI matrix entry re-run the OS
// suite while reporting the mem leg green.  When the EXTSCC_FAULT variable is
// set, the returned backend is wrapped in its fault plan (see ParseFaultSpec);
// a malformed fault spec panics for the same reason.
func Default() Backend {
	b, err := defaultOnce()
	if err != nil {
		panic(fmt.Sprintf("invalid %s/%s environment: %v", envVar, faultEnvVar, err))
	}
	return b
}

// ByName resolves a backend by flag value: a storage spec (see Parse) or ""
// for the process default — the OS backend unless the EXTSCC_STORAGE
// environment variable says otherwise, so a CLI that passes its unset
// -storage flag straight through still honours the variable.
func ByName(name string) (Backend, error) {
	if name == "" {
		return defaultOnce()
	}
	return Parse(name)
}

// Parse resolves a storage spec.  One grammar serves every entry point —
// the EXTSCC_STORAGE environment variable and the -storage flag of all
// CLIs:
//
//	os   the local filesystem (the default)
//	mem  the process-shared in-memory store
//
// When the EXTSCC_FAULT variable is set, the resolved backend is wrapped in
// its fault plan.
func Parse(spec string) (Backend, error) {
	switch spec {
	case "os":
		return withEnvFault(OS())
	case "mem":
		return withEnvFault(SharedMem())
	default:
		// The backend must be nil on error: returning a usable fallback next
		// to the error let callers that dropped the error silently run the
		// wrong backend (and report its name as green).
		return nil, errors.New("storage: unknown backend " + spec + " (known: os, mem)")
	}
}

// Copy streams the file at srcPath of src into dstPath of dst.  It is the
// ingest/export bridge between backends (e.g. loading an on-disk edge file
// into the in-memory store before a diskless run) and is deliberately
// unaccounted: crossing the storage boundary is not part of any algorithm's
// I/O cost.
func Copy(dst Backend, dstPath string, src Backend, srcPath string) error {
	in, err := src.Open(srcPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := dst.Create(dstPath)
	if err != nil {
		return err
	}
	size, err := in.Size()
	if err != nil {
		out.Close()
		return err
	}
	if _, err := io.Copy(out, io.NewSectionReader(in, 0, size)); err != nil {
		out.Close()
		dst.Remove(dstPath)
		return err
	}
	if err := out.Close(); err != nil {
		dst.Remove(dstPath)
		return err
	}
	return nil
}

// ReadFile loads the whole file at path from b.  Like Copy it is a bridge
// helper outside the accounted I/O, for tests and tools that need the raw
// bytes of a stored file.
func ReadFile(b Backend, path string) ([]byte, error) {
	f, err := b.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size == 0 {
		return data, nil
	}
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// IsNotExist reports whether err means a file or directory was missing,
// across backends.
func IsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
