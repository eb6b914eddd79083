package extscc

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"slices"
	"sync"
	"time"

	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// Stats summarises the I/O behaviour of a computation.  Every counter is
// independent of the storage backend: for a fixed workload and
// configuration, runs on OSStorage and MemStorage report identical values
// (only Duration varies).  The codec family (WithCodec) is different: it
// deliberately changes BytesWritten and the block counts — that is the point
// of a compressing codec — while leaving the labelling untouched.
type Stats struct {
	// TotalIOs is the number of block transfers (reads plus writes).
	TotalIOs int64
	// ReadIOs and WriteIOs split TotalIOs by direction.
	ReadIOs  int64
	WriteIOs int64
	// RandomIOs is the number of non-sequential block transfers.
	RandomIOs int64
	// RandomReads and RandomWrites split RandomIOs by direction.
	RandomReads  int64
	RandomWrites int64
	// BytesRead and BytesWritten are the transferred volumes.
	BytesRead    int64
	BytesWritten int64
	// FilesCreated is the number of intermediate files the run created.
	FilesCreated int64
	// CompressionRatio is the logical record volume of every file the run
	// wrote divided by the bytes that physically hit storage: 1.0 under
	// CodecFixed, above 1.0 when a compressing codec shrank the files, 0 when
	// nothing was written.
	CompressionRatio float64
	// Retries is the number of transient storage failures the run recovered
	// from by re-issuing the operation (0 unless WithRetry enabled retries
	// and faults actually occurred).  Retried transfers are not double-counted
	// in the I/O counters above.
	Retries int64
	// CorruptFrames is the number of frames that failed integrity
	// verification during the run.  Any non-zero value fails the run with
	// ErrCorrupt, so a successful Result always reports 0; the counter exists
	// for post-mortem inspection by tools that snapshot mid-run.
	CorruptFrames int64
	// ContractionIterations is the number of contraction steps performed
	// (0 for algorithms that do not contract).
	ContractionIterations int
	// SemiExternalScans is the number of sequential edge-file scans the
	// semi-external base case made (ext-scc, ext-scc-op and semi-scc; 0 for
	// the other algorithms).  With WithShards it also counts the scans of
	// the shard pre-pass, whose solves run Ext-SCC whatever the algorithm.
	SemiExternalScans int
	// Workers is always 1: every run's sorts and block streams execute on
	// its own goroutine (only WithShards solves shards concurrently).  The
	// field stays so that code reading it keeps compiling.
	Workers int
	// Storage names the backend the run executed on ("os", "mem").  It
	// never affects the I/O counters above, only Duration.
	Storage string
	// Codec names the record-codec family intermediate files were written
	// with ("fixed" or "varint"); see WithCodec.
	Codec string
	// Phases breaks the run down by engine phase — staging, contraction,
	// sorting, merging, labelling, expansion — in first-execution order.
	// Phases nest (a contraction step runs its sorts and merges), and under
	// WithShards the shard solves run concurrently, so phase walls can sum
	// to more than Duration.
	Phases []PhaseStat
	// Duration is the wall-clock time of the whole Run, staging included.
	Duration time.Duration
}

// PhaseStat is the aggregated profile of one named engine phase: how often it
// ran, its total wall-clock, and its approximate allocation and heap cost
// (heap deltas are sampled at span boundaries, so concurrent activity from
// other phases bleeds in; treat Allocs and HeapDelta as indicative, Wall as
// exact).
type PhaseStat struct {
	Name      string
	Count     int64
	Wall      time.Duration
	Allocs    int64
	HeapDelta int64
}

// phaseStats converts an internal profile snapshot into the public form.
func phaseStats(p *prof.Profile) []PhaseStat {
	snap := p.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	out := make([]PhaseStat, len(snap))
	for i, s := range snap {
		out[i] = PhaseStat{Name: s.Name, Count: s.Count, Wall: s.Wall, Allocs: s.Allocs, HeapDelta: s.HeapDelta}
	}
	return out
}

// Result is the outcome of a computation.
type Result struct {
	// Algorithm is the registered name of the algorithm that produced the
	// result.
	Algorithm string
	// NumNodes is the number of labelled nodes.
	NumNodes int64
	// NumEdges is the number of edges of the input graph.
	NumEdges int64
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// LabelPath is the on-disk label file (one 8-byte (node, scc) record per
	// node, sorted by node id).  It lives inside a run directory that is
	// removed by Close, unless ExportLabels moved it out first.
	LabelPath string
	// EdgePath is the staged edge file the run computed over, on the run's
	// storage backend.  Downstream consumers (condensation-DAG construction,
	// the serving subsystem) re-read it; like LabelPath it lives inside the
	// run directory and is removed by Close.
	EdgePath string
	// NodePath is the staged node file derived alongside EdgePath, same
	// lifetime.
	NodePath string
	// Stats summarises the run.
	Stats Stats

	runDir    string
	cfg       iomodel.Config
	streamErr error

	// labels is the label-file reader LookupLabels keeps open from the first
	// lookup until Close; labelMu serialises the lookups, ExportLabels and
	// Close.
	labelMu sync.Mutex
	labels  *recio.Reader[record.Label]
	closed  bool
}

// Stream iterates the label assignment as (node, SCC label) pairs in node-id
// order, reading LabelPath block by block — the node set never has to fit in
// memory.  If the underlying read fails, the sequence ends early and Err
// reports the failure.
func (r *Result) Stream() iter.Seq2[NodeID, uint32] {
	return func(yield func(NodeID, uint32) bool) {
		r.streamErr = nil
		rd, err := recio.NewReader(r.LabelPath, record.LabelCodec{}, r.cfg)
		if err != nil {
			r.streamErr = err
			return
		}
		defer rd.Close()
		for {
			l, err := rd.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				r.streamErr = err
				return
			}
			if !yield(l.Node, l.SCC) {
				return
			}
		}
	}
}

// Err reports the error, if any, that terminated the most recent Stream
// iteration early.
func (r *Result) Err() error { return r.streamErr }

// LabelOf returns the SCC label of a single node, or ok=false for a node the
// run never saw.  It is LookupLabels of a one-node batch.
func (r *Result) LabelOf(node NodeID) (scc uint32, ok bool, err error) {
	m, err := r.LookupLabels([]NodeID{node})
	scc, ok = m[node]
	return scc, ok, err
}

// LookupLabels resolves a batch of nodes, returning a map holding an entry
// for every node that has a label.  Each distinct node costs one key probe
// of the node-sorted file: on framed (varint) files a binary search
// over the frame-index footer's per-frame key ranges plus at most one frame
// decode, and nothing at all when the frame is already decoded; on fixed
// files a binary search over record offsets.  So point queries over
// larger-than-RAM labellings need no per-node memory under any codec.
//
// The first lookup opens the label file and the Result keeps it open until
// Close; ExportLabels closes it, and the next lookup reopens it at the new
// path.  Any read error drops the handle, so the next call starts afresh,
// and lookups after Close fail.  LabelOf and LookupLabels are safe for
// concurrent use.
func (r *Result) LookupLabels(nodes []NodeID) (map[NodeID]uint32, error) {
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	out := make(map[NodeID]uint32, len(nodes))
	r.labelMu.Lock()
	defer r.labelMu.Unlock()
	if r.closed {
		return nil, errors.New("extscc: label lookup on a closed Result")
	}
	for i, n := range sorted {
		if i > 0 && n == sorted[i-1] {
			continue
		}
		l, err := r.probeLabel(n)
		if err == io.EOF {
			break // n, and every node after it, sorts past the last label
		}
		if err != nil {
			r.releaseLabels()
			return nil, err
		}
		if l.Node == n {
			out[n] = l.SCC
		}
	}
	return out, nil
}

// probeLabel returns the first label at or after node in the label file,
// opening the held reader if needed.  The caller holds labelMu.
func (r *Result) probeLabel(node NodeID) (record.Label, error) {
	if r.labels == nil {
		rd, err := recio.NewReader(r.LabelPath, record.LabelCodec{}, r.cfg)
		if err != nil {
			return record.Label{}, err
		}
		r.labels = rd
	}
	if _, err := r.labels.SeekToKey(uint64(node) << 32); err != nil {
		return record.Label{}, err
	}
	return r.labels.Read()
}

// releaseLabels closes and drops the held label reader.  The caller holds
// labelMu.
func (r *Result) releaseLabels() {
	if r.labels != nil {
		r.labels.Close()
		r.labels = nil
	}
}

// Labels loads the full label assignment into memory.  Use it only when the
// node set fits in memory; otherwise Stream.
func (r *Result) Labels() ([]Label, error) {
	return recio.ReadAll(r.LabelPath, record.LabelCodec{}, r.cfg)
}

// LabelMap loads the assignment as a map from node to SCC label.
func (r *Result) LabelMap() (map[NodeID]uint32, error) {
	labels, err := r.Labels()
	if err != nil {
		return nil, err
	}
	m := make(map[NodeID]uint32, len(labels))
	for _, l := range labels {
		m[l.Node] = l.SCC
	}
	return m, nil
}

// ExportLabels moves the label file out of the run directory to path — on
// the run's storage backend — so it survives Close.  It renames when the
// backend can and falls back to a streamed copy (removing the original)
// otherwise.  It first closes the label file the lookups hold open; the next
// lookup reopens it at its new path.  On success LabelPath points at the
// exported file.  To move a label file from a MemStorage run onto disk,
// export it and copy the bytes out through the backend (cmd/sccrun
// -storage=mem -out does exactly that).
func (r *Result) ExportLabels(path string) error {
	if r == nil || r.LabelPath == "" {
		return errors.New("extscc: result has no label file")
	}
	r.labelMu.Lock()
	defer r.labelMu.Unlock()
	r.releaseLabels()
	backend := r.cfg.Backend()
	if err := backend.Rename(r.LabelPath, path); err == nil {
		r.LabelPath = path
		return nil
	}
	if err := storage.Copy(backend, path, backend, r.LabelPath); err != nil {
		return fmt.Errorf("extscc: export labels: %w", err)
	}
	// The copy succeeded; drop the original so the run directory does not
	// keep a second, identical label file around.
	backend.Remove(r.LabelPath)
	r.LabelPath = path
	return nil
}

// Close closes the label file the lookups hold open, after which lookups
// fail, and removes the result's run directory (including LabelPath, unless
// it was exported) from the run's storage backend.  It is idempotent and
// safe on a nil receiver.
func (r *Result) Close() error {
	if r == nil {
		return nil
	}
	r.labelMu.Lock()
	defer r.labelMu.Unlock()
	r.releaseLabels()
	r.closed = true
	if r.runDir == "" {
		return nil
	}
	dir := r.runDir
	r.runDir = ""
	return r.cfg.Backend().RemoveAll(dir)
}
