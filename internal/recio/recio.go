// Package recio layers typed record readers and writers on top of the
// block-buffered file access of package blockio.  Every external operator
// (external sort, merge joins, sequential scans) reads and writes records
// through this package.
//
// Two on-disk layouts are supported, selected per file by the codec family of
// iomodel.Config (see iomodel.Config.Codec):
//
//   - fixed: the plain concatenation of fixed-size records — byte-identical
//     to the files this repository wrote before codecs became pluggable;
//     record-indexed seeks are byte arithmetic and counting is free.
//   - framed: self-describing frames (blockio.FrameHeader) whose payload a
//     variable-length record.BlockCodec encodes — delta+varint for sorted
//     intermediates, LZ compression for unsorted ones.  Framed writers close
//     the file with a frame-index footer (blockio.Footer), which makes the
//     file seekable too: SeekTo binary-searches the index, SeekToKey range
//     probes via per-frame min/max keys, and Count is O(1).  A framed file
//     without its footer is corrupt (blockio.ErrCorrupt), whether a seek, a
//     count or a stream finds the footer missing.
//
// Readers never need to be told the layout: NewReader sniffs the frame magic
// and dispatches on the frame's codec ID, so files written under different
// codec families mix freely within one run.
package recio

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/pool"
	"extscc/internal/record"
)

// Writer writes records of type T to a file, either as raw fixed-size
// records or as delta+varint frames, depending on the codec family of the
// configuration it was created with.
type Writer[T any] struct {
	w     *blockio.Writer
	codec record.Codec[T]
	stats *iomodel.Stats
	count int64

	// Fixed mode.
	buf []byte

	// Framed mode (nil bc selects fixed mode).
	bc       record.BlockCodec[T]
	batch    []T
	frameCap int
	frame    []byte
	entries  []blockio.FooterEntry

	closed bool
}

// NewWriter creates (truncating) a record file at path, laid out by the codec
// family of cfg (fixed when the family has no block codec for T).  Every
// layout it writes is seekable: fixed by byte arithmetic, framed through the
// frame-index footer.
func NewWriter[T any](path string, codec record.Codec[T], cfg iomodel.Config) (*Writer[T], error) {
	bw, err := blockio.NewWriter(path, cfg)
	if err != nil {
		return nil, err
	}
	w := &Writer[T]{w: bw, codec: codec, stats: cfg.Stats}
	if bc, ok := record.BlockCodecFor[T](cfg.CodecFamily()); ok {
		bs := cfg.BlockSize
		if bs <= 0 {
			bs = iomodel.DefaultBlockSize
		}
		// Cap the records per frame so one frame (header + worst-case
		// payload) never exceeds a block: both ends of the pipe then hold at
		// most ~one block of batched records next to blockio's own buffers.
		cap := (bs - blockio.FrameHeaderSize) / bc.MaxRecordSize()
		if cap < 1 {
			cap = 1
		}
		w.bc = bc
		w.frameCap = cap
		w.batch = make([]T, 0, cap)
		w.frame = pool.GetSlice(bs)[:blockio.FrameHeaderSize]
	} else {
		w.buf = make([]byte, codec.Size())
	}
	return w, nil
}

// Framed reports whether the writer lays records out as codec frames.
func (w *Writer[T]) Framed() bool { return w.bc != nil }

// Write appends one record.
func (w *Writer[T]) Write(rec T) error {
	if w.bc != nil {
		w.batch = append(w.batch, rec)
		w.count++
		if len(w.batch) == w.frameCap {
			return w.flushFrame()
		}
		return nil
	}
	w.codec.Encode(rec, w.buf)
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.count++
	return nil
}

// flushFrame encodes the batched records as one self-describing frame —
// current format version, CRC-32C over header and payload — hands it to the
// block writer, and indexes it for the footer Close appends: byte offset,
// first record index and the key range of the frame's records.
func (w *Writer[T]) flushFrame() error {
	if len(w.batch) == 0 {
		return nil
	}
	entry := blockio.FooterEntry{
		Offset:      w.w.BytesWritten(),
		FirstRecord: w.count - int64(len(w.batch)),
		Count:       uint32(len(w.batch)),
		MinKey:      record.KeyOf(w.batch[0]),
		MaxKey:      record.KeyOf(w.batch[0]),
	}
	for _, rec := range w.batch[1:] {
		if k := record.KeyOf(rec); k < entry.MinKey {
			entry.MinKey = k
		} else if k > entry.MaxKey {
			entry.MaxKey = k
		}
	}
	w.frame = w.bc.AppendBlock(w.frame[:blockio.FrameHeaderSize], w.batch)
	blockio.PutFrameHeader(w.frame[:blockio.FrameHeaderSize], blockio.FrameHeader{
		Codec:   byte(w.bc.ID()),
		Count:   uint32(len(w.batch)),
		Payload: uint32(len(w.frame) - blockio.FrameHeaderSize),
	}, w.frame[blockio.FrameHeaderSize:])
	if _, err := w.w.Write(w.frame); err != nil {
		return err
	}
	w.entries = append(w.entries, entry)
	w.batch = w.batch[:0]
	return nil
}

// Count returns the number of records written so far.
func (w *Writer[T]) Count() int64 { return w.count }

// Name returns the file path.
func (w *Writer[T]) Name() string { return w.w.Name() }

// Close flushes buffered records and blocks, appends the frame-index footer
// of a framed file, and closes the file.  The records' fixed-layout volume is
// charged to the logical-bytes counter, so Stats can report the run's
// compression ratio.
func (w *Writer[T]) Close() error {
	if w.closed {
		return w.w.Close()
	}
	w.closed = true
	var ferr error
	if w.bc != nil {
		ferr = w.flushFrame()
		if ferr == nil && len(w.entries) > 0 {
			_, ferr = w.w.Write(blockio.AppendFooter(nil, w.entries))
		}
	}
	w.stats.CountLogicalWrite(w.count * int64(w.codec.Size()))
	pool.PutSlice(w.frame)
	w.frame = nil
	cerr := w.w.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Reader reads records of type T from a file, auto-detecting whether the
// file is a raw fixed-size record file or a framed codec file.
type Reader[T any] struct {
	r     *blockio.Reader
	codec record.Codec[T]
	stats *iomodel.Stats
	cfg   iomodel.Config

	// Fixed mode.  pre holds bytes consumed from the file head while
	// sniffing for the frame magic; records are served from it first.
	buf    []byte
	pre    []byte
	preOff int

	// Framed mode.  pendingHead holds the raw bytes of the header sniffed at
	// open (needed to verify that frame's CRC); frameIdx/frameOff track the
	// index and byte offset of the frame currently being read, so corruption
	// errors can name the exact frame; frameFirst/nextFirst track the record
	// index of the current batch's first record and of the frame after it.
	bc          record.BlockCodec[T]
	batch       []T
	bi          int
	payload     []byte
	pending     *blockio.FrameHeader
	pendingHead []byte
	frameIdx    int64
	frameOff    int64
	frameFirst  int64
	nextFirst   int64
	done        bool

	// Frame-index footer, loaded lazily by the first SeekTo/SeekToKey/Count
	// — sequential streaming never pays for it.  footerErr caches a missing
	// or corrupt footer (corruption is deterministic, so retrying the parse
	// cannot help).
	footerLoaded bool
	footer       *blockio.Footer
	footerErr    error
}

// NewReader opens a record file for sequential reading, sniffing its layout
// from the first bytes: files starting with a valid frame header are decoded
// by the block codec the header names, anything else is read as raw
// fixed-size records.  The sniff reads the file's head block at open time —
// one sequential block I/O that a sequential consumer would have paid on its
// first Read anyway; only open-then-seek access patterns pay it extra, the
// price of self-describing files.
func NewReader[T any](path string, codec record.Codec[T], cfg iomodel.Config) (*Reader[T], error) {
	br, err := blockio.NewReader(path, cfg)
	if err != nil {
		return nil, err
	}
	r := &Reader[T]{r: br, codec: codec, stats: cfg.Stats, cfg: cfg}
	fail := func(err error) (*Reader[T], error) {
		br.Close()
		return nil, err
	}
	if br.Size() >= blockio.FrameHeaderSize {
		head := make([]byte, blockio.FrameHeaderSize)
		if err := br.ReadFull(head); err != nil {
			return fail(fmt.Errorf("recio: read head of %s: %w", path, err))
		}
		if blockio.HasFrameMagic(head) {
			h, herr := blockio.ParseFrameHeader(head)
			if herr == nil {
				// A well-formed header is a framed file; a codec ID that does
				// not resolve for T means it holds a different record type
				// (or a codec this build does not know), which is always an
				// error — never a reason to reinterpret the bytes as fixed.
				bc, err := record.BlockCodecForID[T](record.CodecID(h.Codec))
				if err != nil {
					return fail(fmt.Errorf("recio: %s: %w", path, err))
				}
				r.bc = bc
				r.pending = &h
				r.pendingHead = head
				return r, nil
			}
			// The magic matched but the header is malformed (bad version,
			// unregistered codec id, insane lengths): the signature of a
			// fixed file whose first node id happens to be the magic bytes.
			// Fall back to the fixed layout when its size arithmetic works
			// out; otherwise surface the header error (the file is a framed
			// format this build cannot read, or corrupt).
			if br.Size()%int64(codec.Size()) != 0 {
				return fail(fmt.Errorf("recio: %s: %w", path, herr))
			}
		}
		r.pre = head
	} else if br.Size() > 0 {
		// The whole file is shorter than a frame header: it can only be a
		// (tiny) fixed file.
		r.pre = make([]byte, br.Size())
		if err := br.ReadFull(r.pre); err != nil {
			return fail(fmt.Errorf("recio: read head of %s: %w", path, err))
		}
	}
	size := int64(codec.Size())
	if br.Size()%size != 0 {
		return fail(fmt.Errorf("recio: %s has size %d, not a multiple of record size %d", path, br.Size(), size))
	}
	r.buf = make([]byte, codec.Size())
	return r, nil
}

// Framed reports whether the file is framed (variable-length codec).  Framed
// files seek and count like fixed ones, through their frame-index footer.
func (r *Reader[T]) Framed() bool { return r.bc != nil }

// loadFooter reads a framed file's frame-index footer, once: two random
// reads through a dedicated single-worker block reader, so the streaming
// reader's position and prefetch pipeline stay untouched.  The result —
// footer or error — is cached; a missing footer is typed corruption.
func (r *Reader[T]) loadFooter() error {
	if r.footerLoaded {
		return r.footerErr
	}
	r.footerLoaded = true
	cfg := r.cfg
	cfg.Workers = 1
	fr, err := blockio.NewReader(r.Name(), cfg)
	if err != nil {
		r.footerErr = err
		return err
	}
	defer fr.Close()
	f, ok, err := blockio.ReadFooter(fr)
	if err == nil && !ok {
		err = &blockio.CorruptError{Path: r.Name(), Frame: -1, Offset: r.r.Size(), Detail: "framed file ends without its frame-index footer"}
	}
	if err != nil {
		if errors.Is(err, blockio.ErrCorrupt) {
			r.stats.CountCorrupt()
			err = fmt.Errorf("recio: %w", err)
		}
		r.footerErr = err
		return err
	}
	r.footer = &f
	return nil
}

// Count returns the total number of records in the file: size arithmetic for
// the fixed layout, the frame-index footer (loaded on first use) for framed
// files.
func (r *Reader[T]) Count() (int64, error) {
	if r.bc != nil {
		if err := r.loadFooter(); err != nil {
			return 0, err
		}
		return r.footer.TotalRecords, nil
	}
	return r.r.Size() / int64(r.codec.Size()), nil
}

// Name returns the file path.
func (r *Reader[T]) Name() string { return r.r.Name() }

// readFull fills p from the sniffed head bytes first, then from the block
// reader.
func (r *Reader[T]) readFull(p []byte) error {
	got := 0
	for r.preOff < len(r.pre) && got < len(p) {
		n := copy(p[got:], r.pre[r.preOff:])
		got += n
		r.preOff += n
	}
	if got == len(p) {
		return nil
	}
	err := r.r.ReadFull(p[got:])
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// corrupt builds the typed corruption error for the frame currently being
// read, naming the file, the frame index and the byte offset of its header.
func (r *Reader[T]) corrupt(off int64, detail string) error {
	r.stats.CountCorrupt()
	return fmt.Errorf("recio: %w", &blockio.CorruptError{Path: r.Name(), Frame: r.frameIdx, Offset: off, Detail: detail})
}

// nextFrame loads the next frame's records into the batch, verifying the
// frame's integrity: the header must parse and the CRC-32C over header and
// payload must match.  Any mismatch, truncation, decode failure or a file
// that ends without its footer surfaces as a blockio.CorruptError
// (errors.Is ErrCorrupt), never as wrong records.
func (r *Reader[T]) nextFrame() error {
	for {
		if r.done {
			return io.EOF
		}
		var h blockio.FrameHeader
		var head []byte
		start := r.frameOff
		if r.pending != nil {
			h, r.pending = *r.pending, nil
			head, r.pendingHead = r.pendingHead, nil
		} else {
			// A footer is longer than a frame header, so this read succeeds
			// on an intact file whether a frame or the footer comes next.
			var buf [blockio.FrameHeaderSize]byte
			if err := r.readFull(buf[:]); err != nil {
				if err == io.EOF {
					return r.corrupt(start, "framed file ends without its frame-index footer")
				}
				if err == io.ErrUnexpectedEOF {
					return r.corrupt(start, "truncated frame header")
				}
				return fmt.Errorf("recio: read frame header of %s: %w", r.Name(), err)
			}
			if blockio.HasFooterMagic(buf[:]) {
				// The frames are over: what follows is the frame-index footer,
				// which loadFooter reads through its own reader.
				r.done = true
				return io.EOF
			}
			head = buf[:]
			var err error
			h, err = blockio.ParseFrameHeader(head)
			if err != nil {
				return r.corrupt(start, err.Error())
			}
		}
		if record.CodecID(h.Codec) != r.bc.ID() {
			return fmt.Errorf("recio: %s: frame codec id %d, file opened with codec id %d", r.Name(), h.Codec, r.bc.ID())
		}
		// Sanity bound before allocating: the payload cannot exceed the file
		// (ParseFrameHeader already capped it globally and bounded the record
		// count by the payload bytes).
		if int64(h.Payload) > r.r.Size() {
			return r.corrupt(start, fmt.Sprintf("frame payload length %d exceeds file size %d", h.Payload, r.r.Size()))
		}
		if cap(r.payload) < int(h.Payload) {
			pool.PutSlice(r.payload)
			r.payload = pool.GetSlice(int(h.Payload))
		}
		pb := r.payload[:h.Payload]
		if err := r.readFull(pb); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return r.corrupt(start, "truncated frame payload")
			}
			return err
		}
		if detail := blockio.VerifyFrame(h, head, pb); detail != "" {
			return r.corrupt(start, detail)
		}
		r.batch = r.batch[:0]
		var err error
		r.batch, err = r.bc.DecodeBlock(pb, int(h.Count), r.batch)
		if err != nil {
			return r.corrupt(start, err.Error())
		}
		r.frameIdx++
		r.frameOff = start + int64(len(head)) + int64(h.Payload)
		r.bi = 0
		r.frameFirst = r.nextFirst
		r.nextFirst += int64(len(r.batch))
		if len(r.batch) > 0 {
			return nil
		}
	}
}

// Read returns the next record, or io.EOF after the last one.
func (r *Reader[T]) Read() (T, error) {
	var zero T
	if r.bc != nil {
		if r.bi >= len(r.batch) {
			if err := r.nextFrame(); err != nil {
				return zero, err
			}
		}
		rec := r.batch[r.bi]
		r.bi++
		return rec, nil
	}
	if err := r.readFull(r.buf); err != nil {
		if err == io.EOF {
			return zero, io.EOF
		}
		return zero, err
	}
	return r.codec.Decode(r.buf), nil
}

// seekFrame positions the framed reader on footer entry fi and decodes that
// frame, leaving bi at its first record.  The footer must be loaded.
func (r *Reader[T]) seekFrame(fi int) error {
	e := r.footer.Entries[fi]
	if err := r.r.SeekTo(e.Offset); err != nil {
		return err
	}
	r.pending, r.pendingHead = nil, nil
	r.done = false
	r.frameIdx = int64(fi)
	r.frameOff = e.Offset
	r.nextFirst = e.FirstRecord
	r.batch = r.batch[:0]
	if err := r.nextFrame(); err != nil {
		if err == io.EOF {
			return r.corrupt(e.Offset, "footer names a frame past the end of the frames")
		}
		return err
	}
	if int64(len(r.batch)) != int64(e.Count) {
		return r.corrupt(e.Offset, fmt.Sprintf("frame holds %d records but the footer says %d", len(r.batch), e.Count))
	}
	return nil
}

// seekEnd parks the framed reader in the end-of-file state: the next Read
// returns io.EOF.
func (r *Reader[T]) seekEnd() {
	r.done = true
	r.batch = r.batch[:0]
	r.bi = 0
	r.frameFirst = r.nextFirst
}

// SeekTo repositions the reader to the record with the given index; an index
// at or past the end parks the reader at io.EOF.  On the fixed layout the
// seek is byte arithmetic; on a framed file with a frame-index footer it is a
// binary search over the footer entries, decoding one frame — and a target
// inside the already-decoded frame costs no I/O at all, which makes
// converging binary-search probes over a framed file cheap.  The block fetch
// after a seek is charged as a random I/O unless it happens to be
// sequential.
func (r *Reader[T]) SeekTo(recordIndex int64) error {
	if r.bc == nil {
		r.preOff = len(r.pre)
		return r.r.SeekTo(recordIndex * int64(r.codec.Size()))
	}
	if err := r.loadFooter(); err != nil {
		return err
	}
	if len(r.batch) > 0 && recordIndex >= r.frameFirst && recordIndex < r.frameFirst+int64(len(r.batch)) {
		r.bi = int(recordIndex - r.frameFirst)
		return nil
	}
	fi, ok := r.footer.FrameForRecord(recordIndex)
	if !ok {
		r.nextFirst = r.footer.TotalRecords
		r.seekEnd()
		return nil
	}
	if err := r.seekFrame(fi); err != nil {
		return err
	}
	r.bi = int(recordIndex - r.footer.Entries[fi].FirstRecord)
	return nil
}

// SeekToKey repositions the reader to the first record whose record.KeyOf is
// at least key, returning that record's index; when every key in the file is
// smaller it parks the reader at io.EOF and returns Count().  The probe is
// meaningful on files sorted by their canonical order (which KeyOf is
// monotone with): a binary search over record indexes on the fixed layout,
// and a footer probe through the per-frame min/max keys — O(log F) plus one
// frame decode — on a framed file.
func (r *Reader[T]) SeekToKey(key uint64) (int64, error) {
	if r.bc == nil {
		lo, hi := int64(0), r.r.Size()/int64(r.codec.Size())
		for lo < hi {
			mid := lo + (hi-lo)/2
			if err := r.SeekTo(mid); err != nil {
				return 0, err
			}
			rec, err := r.Read()
			if err != nil {
				return 0, err
			}
			if record.KeyOf(rec) >= key {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo, r.SeekTo(lo)
	}
	if err := r.loadFooter(); err != nil {
		return 0, err
	}
	fi, ok := r.footer.FrameForKey(key)
	if !ok {
		r.nextFirst = r.footer.TotalRecords
		r.seekEnd()
		return r.footer.TotalRecords, nil
	}
	if len(r.batch) == 0 || r.frameFirst != r.footer.Entries[fi].FirstRecord {
		if err := r.seekFrame(fi); err != nil {
			return 0, err
		}
	}
	r.bi = sort.Search(len(r.batch), func(i int) bool { return record.KeyOf(r.batch[i]) >= key })
	return r.frameFirst + int64(r.bi), nil
}

// Close closes the underlying file and recycles the frame-payload scratch.
func (r *Reader[T]) Close() error {
	pool.PutSlice(r.payload)
	r.payload = nil
	return r.r.Close()
}

// Iterator is a pull-based stream of records: Next returns (record, true, nil)
// until the stream is exhausted, then (zero, false, nil).
type Iterator[T any] interface {
	Next() (T, bool, error)
}

// readerIterator adapts a Reader to the Iterator interface.
type readerIterator[T any] struct {
	r *Reader[T]
}

// Iter returns an Iterator view of the reader.
func (r *Reader[T]) Iter() Iterator[T] { return &readerIterator[T]{r: r} }

func (it *readerIterator[T]) Next() (T, bool, error) {
	rec, err := it.r.Read()
	if err == io.EOF {
		var zero T
		return zero, false, nil
	}
	if err != nil {
		var zero T
		return zero, false, err
	}
	return rec, true, nil
}

// SliceIterator iterates over an in-memory slice; used by tests and by
// operators whose left input is known to be small.
type SliceIterator[T any] struct {
	recs []T
	pos  int
}

// NewSliceIterator returns an Iterator over recs.
func NewSliceIterator[T any](recs []T) *SliceIterator[T] { return &SliceIterator[T]{recs: recs} }

// Next implements Iterator.
func (it *SliceIterator[T]) Next() (T, bool, error) {
	if it.pos >= len(it.recs) {
		var zero T
		return zero, false, nil
	}
	rec := it.recs[it.pos]
	it.pos++
	return rec, true, nil
}

// Peekable wraps an Iterator with one-record lookahead, the primitive the
// merge joins are built on.
type Peekable[T any] struct {
	it    Iterator[T]
	cur   T
	valid bool
	err   error
}

// NewPeekable returns a Peekable positioned on the first record of it.
func NewPeekable[T any](it Iterator[T]) *Peekable[T] {
	p := &Peekable[T]{it: it}
	p.advance()
	return p
}

func (p *Peekable[T]) advance() {
	if p.err != nil {
		p.valid = false
		return
	}
	p.cur, p.valid, p.err = p.it.Next()
	if p.err != nil {
		p.valid = false
	}
}

// Valid reports whether a current record is available.
func (p *Peekable[T]) Valid() bool { return p.valid }

// Err returns the first error encountered while reading, if any.
func (p *Peekable[T]) Err() error { return p.err }

// Peek returns the current record without consuming it.  It must only be
// called when Valid() is true.
func (p *Peekable[T]) Peek() T { return p.cur }

// Pop returns the current record and advances to the next one.  It must only
// be called when Valid() is true.
func (p *Peekable[T]) Pop() T {
	rec := p.cur
	p.advance()
	return rec
}

// WriteAll writes every record produced by it to a new file at path and
// returns the number of records written.
func WriteAll[T any](path string, codec record.Codec[T], cfg iomodel.Config, it Iterator[T]) (int64, error) {
	w, err := NewWriter(path, codec, cfg)
	if err != nil {
		return 0, err
	}
	for {
		rec, ok, err := it.Next()
		if err != nil {
			w.Close()
			return w.Count(), err
		}
		if !ok {
			break
		}
		if err := w.Write(rec); err != nil {
			w.Close()
			return w.Count(), err
		}
	}
	if err := w.Close(); err != nil {
		return w.Count(), err
	}
	return w.Count(), nil
}

// WriteSlice writes the records of recs to a new file at path.
func WriteSlice[T any](path string, codec record.Codec[T], cfg iomodel.Config, recs []T) error {
	_, err := WriteAll(path, codec, cfg, NewSliceIterator(recs))
	return err
}

// ReadAll reads every record of the file at path into memory.  It is intended
// for tests and for files known to fit in memory (for example the final
// contracted graph); production operators stream instead.
func ReadAll[T any](path string, codec record.Codec[T], cfg iomodel.Config) ([]T, error) {
	r, err := NewReader(path, codec, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	// The capacity hint must stay free: on a framed file Count() would load
	// the frame-index footer — two random block reads — which a sequential
	// drain has no business charging.
	hint := int64(0)
	if !r.Framed() {
		hint = r.r.Size() / int64(r.codec.Size())
	}
	recs := make([]T, 0, hint)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// CountRecords returns the number of records in the file at path: size
// arithmetic for a fixed-layout file (on top of the open, which like every
// open reads the head block to detect the layout), the frame-index footer for
// a framed one (two random block reads).  Operators on the hot path carry
// counts from the writers that produced their files instead of calling this.
func CountRecords[T any](path string, codec record.Codec[T], cfg iomodel.Config) (int64, error) {
	r, err := NewReader(path, codec, cfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return r.Count()
}
