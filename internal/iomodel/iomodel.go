// Package iomodel defines the external-memory (I/O) cost model used by every
// other package in this repository.
//
// The model follows Aggarwal & Vitter: data on disk is transferred in blocks
// of B bytes, the algorithm may keep at most M bytes of working state in main
// memory (2*B <= M < size of the graph), and the cost of an algorithm is the
// number of block transfers it performs.  Block transfers are further
// classified as sequential (the block immediately follows the previously
// accessed block of the same file) or random (any other access), because the
// paper's central claim is that Ext-SCC replaces the random I/Os of external
// DFS with sequential scans and external sorts.
package iomodel

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"extscc/internal/prof"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// Default parameters for the scaled-down reproduction.  The paper uses
// B = 256 KB and M between 200 MB and 600 MB; the reproduction defaults scale
// both down so that multi-iteration contraction is exercised on graphs that
// fit in a CI machine.
const (
	// DefaultBlockSize is the default disk block size B in bytes.
	DefaultBlockSize = 64 * 1024
	// DefaultMemory is the default main-memory budget M in bytes.
	DefaultMemory = 4 * 1024 * 1024
	// BytesPerNode is the per-node memory the paper charges its
	// semi-external base case: two node-sized arrays of 4 bytes each.
	// NodeCapacity divides M by it, so the capacity follows the paper's
	// charge, not the footprint of this repository's solver, which holds
	// about 40 bytes per node plus a batch of up to M/2 bytes (see package
	// semiscc).  At the defaults the capacity is 516,096 nodes, whose solve
	// holds about 22 MB against M = 4 MiB.
	BytesPerNode = 8
	// DefaultRetryBackoff is the first-retry wait applied when Retries > 0 and
	// no explicit backoff was configured; each further retry doubles it.
	DefaultRetryBackoff = 2 * time.Millisecond
)

// Config carries the I/O-model parameters of a run.  A zero Config is not
// valid; use DefaultConfig or fill every field.
type Config struct {
	// BlockSize is the disk block size B in bytes.
	BlockSize int
	// Memory is the main-memory budget M in bytes.
	Memory int64
	// TempDir is the directory for intermediate files.  Empty means the
	// system temporary directory.
	TempDir string
	// NodeBudget, when positive, overrides the node capacity derived from
	// Memory (see NodeCapacity).  It decouples the semi-external stop
	// condition of Algorithm 2 from the buffer sizes of the external sort,
	// which tests and the benchmark harness use to force a chosen number of
	// contraction iterations without shrinking sort buffers to a handful of
	// records.
	NodeBudget int64
	// Workers has no effect: the external sort and the block streams run on
	// their caller's goroutine whatever it says.  It stays so that code
	// setting it keeps compiling.
	Workers int
	// Codec names the record-codec family every intermediate file of the run
	// is written with: record.FamilyFixed the frameless fixed-size layout,
	// record.FamilyVarint delta+varint frames, and "" the default (see
	// CodecFamily).  Readers auto-detect the codec of each file from its
	// frame header, so the setting only steers writers: mixing inputs
	// written under a different family is always safe.  The codec changes
	// the number of bytes — and therefore blocks — a file occupies, so
	// unlike Storage it intentionally changes the accounted I/O
	// counts; it never changes any computed labelling.
	Codec string
	// Retries is the number of times a failed backend operation (open, create,
	// block read, block write) is retried when the failure is transient
	// (storage.IsTransient).  0 — the default — disables retrying entirely,
	// keeping the historical fail-fast behaviour byte-exact; permanent errors
	// are never retried.  Retries never change the accounted I/O: a re-issued
	// block transfer replaces the failed one, it is not charged twice.
	Retries int
	// RetryBackoff is the wait before the first retry; each further retry
	// doubles it.  0 selects a small default when Retries > 0.
	RetryBackoff time.Duration
	// Storage is the backend every file of the run lives on.  nil selects
	// the process default (the OS backend, unless the EXTSCC_STORAGE
	// environment variable overrides it; see storage.Default).  The backend
	// never changes the accounted I/O: blockio charges Stats per block above
	// the storage layer, so a run against the in-memory backend counts
	// exactly the I/Os of the same run against local disk.
	Storage storage.Backend
	// Stats receives the I/O counts of every operation performed under this
	// configuration.  If nil, a private Stats is allocated by Validate.
	Stats *Stats
	// Prof receives per-phase wall-clock/allocation measurements of the run
	// (staging, contraction, sort/merge, labelling, expansion).  nil
	// disables the instrumentation.
	Prof *prof.Profile
}

// DefaultConfig returns a Config with the scaled-down defaults and a fresh
// Stats counter.
func DefaultConfig() Config {
	return Config{
		BlockSize: DefaultBlockSize,
		Memory:    DefaultMemory,
		Stats:     &Stats{},
	}
}

// Validate checks the model constraints (M >= 2*B, positive block size) and
// fills defaults for optional fields.  It returns a copy with defaults
// applied.
func (c Config) Validate() (Config, error) {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Memory <= 0 {
		c.Memory = DefaultMemory
	}
	if c.Memory < int64(2*c.BlockSize) {
		return c, fmt.Errorf("iomodel: memory %d violates M >= 2*B with B=%d", c.Memory, c.BlockSize)
	}
	if c.Retries < 0 {
		return c, fmt.Errorf("iomodel: negative retry count %d", c.Retries)
	}
	if c.RetryBackoff < 0 {
		return c, fmt.Errorf("iomodel: negative retry backoff %v", c.RetryBackoff)
	}
	if c.Retries > 0 && c.RetryBackoff == 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.Codec != "" && !record.ValidFamily(c.Codec) {
		return c, fmt.Errorf("iomodel: unknown codec family %q (known: %v)", c.Codec, record.Families())
	}
	if c.Stats == nil {
		c.Stats = &Stats{}
	}
	if c.Storage == nil {
		c.Storage = storage.Default()
	}
	return c, nil
}

// Backend returns the effective storage backend of the configuration (the
// process default when the Storage field was left nil).
func (c Config) Backend() storage.Backend {
	if c.Storage != nil {
		return c.Storage
	}
	return storage.Default()
}

// CodecFamily returns the effective record-codec family of the
// configuration: the Codec field, or record.FamilyVarint when it is empty —
// varint cuts bytes and block I/Os on every workload measured.  Both families
// support record seeks (framed files carry a frame-index footer), so the
// fixed layout is opt-in (WithCodec("fixed")) only for byte-compatibility
// with pre-codec files.
func (c Config) CodecFamily() string {
	if c.Codec == "" {
		return record.FamilyVarint
	}
	return c.Codec
}

// NodeCapacity returns the number of graph nodes whose per-node state fits in
// the memory budget at the paper's BytesPerNode charge, i.e. the
// semi-external threshold of Algorithm 2: the contraction phase stops once
// |V_i| <= NodeCapacity().  A positive NodeBudget overrides the derived
// value.
func (c Config) NodeCapacity() int64 {
	if c.NodeBudget > 0 {
		return c.NodeBudget
	}
	cap := (c.Memory - int64(c.BlockSize)) / BytesPerNode
	if cap < 0 {
		return 0
	}
	return cap
}

// SortFanIn returns the merge fan-in available to the external sort: the
// number of input blocks that fit in memory alongside one output block.
func (c Config) SortFanIn() int {
	fan := int(c.Memory/int64(c.BlockSize)) - 1
	if fan < 2 {
		fan = 2
	}
	return fan
}

// Blocks returns the number of B-sized blocks needed to hold n bytes.
func (c Config) Blocks(n int64) int64 {
	if n <= 0 {
		return 0
	}
	b := int64(c.BlockSize)
	return (n + b - 1) / b
}

// ScanCost returns the model cost scan(m) = Theta(m/B) in block transfers for
// m records of recordSize bytes.
func (c Config) ScanCost(m int64, recordSize int) int64 {
	return c.Blocks(m * int64(recordSize))
}

// SortCost returns the model cost sort(m) = Theta(m/B * log_{M/B}(m/B)) in
// block transfers for m records of recordSize bytes.
func (c Config) SortCost(m int64, recordSize int) int64 {
	blocks := c.Blocks(m * int64(recordSize))
	if blocks <= 1 {
		return blocks
	}
	base := float64(c.Memory) / float64(c.BlockSize)
	if base < 2 {
		base = 2
	}
	passes := math.Ceil(math.Log(float64(blocks)) / math.Log(base))
	if passes < 1 {
		passes = 1
	}
	return int64(float64(blocks) * passes)
}

// Stats accumulates I/O counts.  All methods are safe for concurrent use.
type Stats struct {
	readBlocks       atomic.Int64
	writeBlocks      atomic.Int64
	randomReads      atomic.Int64
	randomWrites     atomic.Int64
	bytesRead        atomic.Int64
	bytesWritten     atomic.Int64
	logicalWritten   atomic.Int64
	filesCreated     atomic.Int64
	sortRuns         atomic.Int64
	mergePasses      atomic.Int64
	recordsSorted    atomic.Int64
	inMemorySolves   atomic.Int64
	semiExternalRuns atomic.Int64
	retries          atomic.Int64
	corruptFrames    atomic.Int64
}

// CountRead records the transfer of one block read of n bytes; random marks a
// non-sequential access.
func (s *Stats) CountRead(n int, random bool) {
	if s == nil {
		return
	}
	s.readBlocks.Add(1)
	s.bytesRead.Add(int64(n))
	if random {
		s.randomReads.Add(1)
	}
}

// CountWrite records the transfer of one block write of n bytes; random marks
// a non-sequential access.
func (s *Stats) CountWrite(n int, random bool) {
	if s == nil {
		return
	}
	s.writeBlocks.Add(1)
	s.bytesWritten.Add(int64(n))
	if random {
		s.randomWrites.Add(1)
	}
}

// CountLogicalWrite records n logical record bytes accepted by a record
// writer: the fixed-layout size of the records regardless of the codec that
// laid them out on disk.  The ratio logical/physical is the run's compression
// ratio (1.0 under the fixed codec, higher when a codec shrinks the files).
func (s *Stats) CountLogicalWrite(n int64) {
	if s == nil {
		return
	}
	s.logicalWritten.Add(n)
}

// CountFile records the creation of an intermediate file.
func (s *Stats) CountFile() {
	if s == nil {
		return
	}
	s.filesCreated.Add(1)
}

// CountSortRun records the creation of one sorted run during external sort.
func (s *Stats) CountSortRun(records int64) {
	if s == nil {
		return
	}
	s.sortRuns.Add(1)
	s.recordsSorted.Add(records)
}

// CountMergePass records one k-way merge pass of the external sort.
func (s *Stats) CountMergePass() {
	if s == nil {
		return
	}
	s.mergePasses.Add(1)
}

// CountInMemorySolve records that a sub-problem was solved fully in memory.
func (s *Stats) CountInMemorySolve() {
	if s == nil {
		return
	}
	s.inMemorySolves.Add(1)
}

// CountSemiExternalRun records one invocation of the semi-external solver.
func (s *Stats) CountSemiExternalRun() {
	if s == nil {
		return
	}
	s.semiExternalRuns.Add(1)
}

// CountRetry records one retried backend operation after a transient failure.
func (s *Stats) CountRetry() {
	if s == nil {
		return
	}
	s.retries.Add(1)
}

// CountCorrupt records one frame that failed integrity verification.
func (s *Stats) CountCorrupt() {
	if s == nil {
		return
	}
	s.corruptFrames.Add(1)
}

// Snapshot is an immutable copy of the counters of a Stats.
type Snapshot struct {
	ReadBlocks       int64
	WriteBlocks      int64
	RandomReads      int64
	RandomWrites     int64
	BytesRead        int64
	BytesWritten     int64
	LogicalWritten   int64
	FilesCreated     int64
	SortRuns         int64
	MergePasses      int64
	RecordsSorted    int64
	InMemorySolves   int64
	SemiExternalRuns int64
	Retries          int64
	CorruptFrames    int64
}

// Snapshot returns a copy of the current counter values.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		ReadBlocks:       s.readBlocks.Load(),
		WriteBlocks:      s.writeBlocks.Load(),
		RandomReads:      s.randomReads.Load(),
		RandomWrites:     s.randomWrites.Load(),
		BytesRead:        s.bytesRead.Load(),
		BytesWritten:     s.bytesWritten.Load(),
		LogicalWritten:   s.logicalWritten.Load(),
		FilesCreated:     s.filesCreated.Load(),
		SortRuns:         s.sortRuns.Load(),
		MergePasses:      s.mergePasses.Load(),
		RecordsSorted:    s.recordsSorted.Load(),
		InMemorySolves:   s.inMemorySolves.Load(),
		SemiExternalRuns: s.semiExternalRuns.Load(),
		Retries:          s.retries.Load(),
		CorruptFrames:    s.corruptFrames.Load(),
	}
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	*s = Stats{}
}

// TotalIOs returns the total number of block transfers (reads + writes).
func (sn Snapshot) TotalIOs() int64 { return sn.ReadBlocks + sn.WriteBlocks }

// RandomIOs returns the total number of random block transfers.
func (sn Snapshot) RandomIOs() int64 { return sn.RandomReads + sn.RandomWrites }

// CompressionRatio returns logical record bytes divided by physical bytes
// written: 1.0 under the fixed codec, above 1.0 when a codec shrank the
// files, and 0 when nothing was written.
func (sn Snapshot) CompressionRatio() float64 {
	if sn.BytesWritten <= 0 || sn.LogicalWritten <= 0 {
		return 0
	}
	return float64(sn.LogicalWritten) / float64(sn.BytesWritten)
}

// Sub returns the component-wise difference sn - other, useful for measuring
// the cost of a single phase.
func (sn Snapshot) Sub(other Snapshot) Snapshot {
	return Snapshot{
		ReadBlocks:       sn.ReadBlocks - other.ReadBlocks,
		WriteBlocks:      sn.WriteBlocks - other.WriteBlocks,
		RandomReads:      sn.RandomReads - other.RandomReads,
		RandomWrites:     sn.RandomWrites - other.RandomWrites,
		BytesRead:        sn.BytesRead - other.BytesRead,
		BytesWritten:     sn.BytesWritten - other.BytesWritten,
		LogicalWritten:   sn.LogicalWritten - other.LogicalWritten,
		FilesCreated:     sn.FilesCreated - other.FilesCreated,
		SortRuns:         sn.SortRuns - other.SortRuns,
		MergePasses:      sn.MergePasses - other.MergePasses,
		RecordsSorted:    sn.RecordsSorted - other.RecordsSorted,
		InMemorySolves:   sn.InMemorySolves - other.InMemorySolves,
		SemiExternalRuns: sn.SemiExternalRuns - other.SemiExternalRuns,
		Retries:          sn.Retries - other.Retries,
		CorruptFrames:    sn.CorruptFrames - other.CorruptFrames,
	}
}

// Add returns the component-wise sum sn + other.
func (sn Snapshot) Add(other Snapshot) Snapshot {
	return Snapshot{
		ReadBlocks:       sn.ReadBlocks + other.ReadBlocks,
		WriteBlocks:      sn.WriteBlocks + other.WriteBlocks,
		RandomReads:      sn.RandomReads + other.RandomReads,
		RandomWrites:     sn.RandomWrites + other.RandomWrites,
		BytesRead:        sn.BytesRead + other.BytesRead,
		BytesWritten:     sn.BytesWritten + other.BytesWritten,
		LogicalWritten:   sn.LogicalWritten + other.LogicalWritten,
		FilesCreated:     sn.FilesCreated + other.FilesCreated,
		SortRuns:         sn.SortRuns + other.SortRuns,
		MergePasses:      sn.MergePasses + other.MergePasses,
		RecordsSorted:    sn.RecordsSorted + other.RecordsSorted,
		InMemorySolves:   sn.InMemorySolves + other.InMemorySolves,
		SemiExternalRuns: sn.SemiExternalRuns + other.SemiExternalRuns,
		Retries:          sn.Retries + other.Retries,
		CorruptFrames:    sn.CorruptFrames + other.CorruptFrames,
	}
}

// String renders the snapshot for logs and experiment reports.
func (sn Snapshot) String() string {
	return fmt.Sprintf("ios=%d (read=%d write=%d random=%d) bytes=%d/%d sortRuns=%d mergePasses=%d",
		sn.TotalIOs(), sn.ReadBlocks, sn.WriteBlocks, sn.RandomIOs(), sn.BytesRead, sn.BytesWritten, sn.SortRuns, sn.MergePasses)
}
