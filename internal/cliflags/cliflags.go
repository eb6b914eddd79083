// Package cliflags holds the flag definitions, help texts and small
// resolution helpers shared by the cmd/ binaries, so that every tool
// registers the same flag names with the same semantics and the same
// storage-spec grammar (storage.Parse).
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"path"

	"extscc"
	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/storage"
)

// Canonical help texts.  Each flag means exactly the same thing in every
// tool, so the descriptions live here once.
const (
	storageHelp = "storage backend: os (default; local disk), mem (fully in RAM), or shard=child,child,... striping files across several volumes (each child: os, mem, or os:DIR)"
	codecHelp   = "record codec for intermediate files: varint (default; delta+varint frames, wins on sorted files), compress (LZ frames, wins on unsorted files), or fixed (frameless layout, no compression)"
	retryHelp   = "retry transient storage failures up to this many times per operation (0 = fail fast)"
	workersHelp = "worker count for the parallel sorter and overlapped I/O (0 = all CPUs, 1 = sequential)"
)

// Storage registers the -storage flag.  The accepted grammar is
// storage.Parse's: "os", "mem", or "shard=child,child,...".
func Storage() *string { return flag.String("storage", "", storageHelp) }

// Codec registers the -codec flag.
func Codec() *string { return flag.String("codec", "", codecHelp) }

// Retry registers the -retry flag.
func Retry() *int { return flag.Int("retry", 0, retryHelp) }

// Workers registers the -workers flag with the given default (tools that
// measure sequential behaviour default to 1, the rest to 0 = all CPUs).
func Workers(def int) *int { return flag.Int("workers", def, workersHelp) }

// Memory registers the -memory flag.
func Memory() *int64 {
	return flag.Int64("memory", iomodel.DefaultMemory, "memory budget in bytes")
}

// Block registers the -block flag.
func Block() *int {
	return flag.Int("block", iomodel.DefaultBlockSize, "block size in bytes")
}

// NodeBudget registers the -node-budget flag.
func NodeBudget() *int64 {
	return flag.Int64("node-budget", 0, "override the semi-external node capacity")
}

// PrintPhases writes the per-phase profile table of a completed run (the
// -profile output).
func PrintPhases(w io.Writer, phases []extscc.PhaseStat) {
	snap := make([]prof.PhaseStats, len(phases))
	for i, p := range phases {
		snap[i] = prof.PhaseStats{Name: p.Name, Count: p.Count, Wall: p.Wall, Allocs: p.Allocs, HeapDelta: p.HeapDelta}
	}
	fmt.Fprint(w, prof.Format(snap))
}

// ResolveStorage turns a -storage value into a backend; "" resolves the
// process default (the EXTSCC_STORAGE environment variable, or os).
func ResolveStorage(spec string) (storage.Backend, error) {
	return storage.ByName(spec)
}

// StageInput makes a local edge file reachable through backend.  On the OS
// backend the path is used in place; on any other backend the file is copied
// into the backend's temp namespace under tool's name, outside the accounted
// I/O (crossing the storage boundary is not part of any algorithm's cost).
// The returned cleanup removes the staged copy and is always non-nil.
func StageInput(backend storage.Backend, tool, localPath string) (string, func(), error) {
	if backend.Name() == "os" {
		return localPath, func() {}, nil
	}
	staged := path.Join(backend.TempPath(), tool+"-input.edges")
	if err := storage.Copy(backend, staged, storage.OS(), localPath); err != nil {
		return "", func() {}, fmt.Errorf("stage %s into the %s backend: %w", localPath, backend.Name(), err)
	}
	return staged, func() { backend.Remove(staged) }, nil
}

// ExportFile copies a file that lives on backend out to the local
// filesystem; on the OS backend it is a plain copy between paths.
func ExportFile(backend storage.Backend, localPath, backendPath string) error {
	return storage.Copy(storage.OS(), localPath, backend, backendPath)
}

// ListAlgorithms writes the registry listing every tool prints for
// "-algo help".
func ListAlgorithms(w io.Writer) {
	fmt.Fprintln(w, "registered algorithms:")
	for _, a := range extscc.Algorithms() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name(), a.Description())
	}
}
