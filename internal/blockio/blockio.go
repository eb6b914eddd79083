// Package blockio provides block-buffered, I/O-counted access to files of a
// storage backend.  Every read and write performed by the external
// algorithms in this repository goes through this package so that the number
// of block transfers (and whether they are sequential or random) is measured
// exactly as in the I/O model of the paper.  The backend (local disk, RAM,
// ...) comes from iomodel.Config.Backend(); the accounting is charged here,
// above the backend, so every backend observes identical I/O counts.
package blockio

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"extscc/internal/iomodel"
	"extscc/internal/storage"
)

// ErrClosed is returned by operations on a closed Reader or Writer.
var ErrClosed = errors.New("blockio: file already closed")

// tempNamer generates unique temp-file names: a per-process random prefix
// guards against collisions between processes sharing one TempDir (a bare
// sequence number is unique only within a process), and the sequence number
// keeps names unique within the process.
type tempNamer struct {
	prefix string
	seq    atomic.Int64
}

// newTempNamer draws a fresh random prefix.  When the system entropy source
// is unavailable it falls back to PID+time, which still separates processes.
func newTempNamer() *tempNamer {
	var b [6]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint16(b[0:2], uint16(os.Getpid()))
		binary.LittleEndian.PutUint32(b[2:6], uint32(time.Now().UnixNano()))
	}
	return &tempNamer{prefix: hex.EncodeToString(b[:])}
}

// path returns the next unique path under dir.
func (t *tempNamer) path(dir, prefix string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-%06d.bin", prefix, t.prefix, t.seq.Add(1)))
}

var defaultNamer = newTempNamer()

// TempFile returns a unique path for an intermediate file under dir (or the
// system temp directory when dir is empty).  The file is not created; callers
// pass the path to NewWriter.  The stats counter records the file creation.
// Names embed a per-process random prefix, so two processes sharing one
// TempDir never collide.
func TempFile(dir, prefix string, stats *iomodel.Stats) string {
	if dir == "" {
		dir = os.TempDir()
	}
	stats.CountFile()
	return defaultNamer.path(dir, prefix)
}

// Writer writes a file in blocks of the configured size, counting one write
// I/O per flushed block.  Writer is not safe for concurrent use.
//
// With cfg.Workers > 1 the Writer is write-behind: full blocks are handed to
// a background goroutine so that encoding the next block overlaps the disk
// write of the previous one.  The accounted I/O is identical to the
// synchronous mode — one sequential write per flushed block, charged at
// hand-off time, in the same order — only the wall-clock overlap changes.  A
// disk error from an asynchronous write surfaces on a later Write or on
// Close.
type Writer struct {
	f         storage.File
	buf       []byte
	n         int
	blockSize int
	stats     *iomodel.Stats
	ret       retrier
	written   int64
	closed    bool
	async     *asyncWriter
}

// asyncWriter is the write-behind state: a background goroutine drains full
// blocks while the foreground fills the next one.  Two block buffers
// circulate, so the writer never holds more than 2*BlockSize bytes.
type asyncWriter struct {
	blocks chan []byte
	free   chan []byte
	done   chan struct{}
	mu     sync.Mutex
	err    error
}

func (a *asyncWriter) setErr(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
}

func (a *asyncWriter) error() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// NewWriter creates (truncating) the file at path on cfg's storage backend
// and returns a Writer using block size cfg.BlockSize, charging I/Os to
// cfg.Stats.
func NewWriter(path string, cfg iomodel.Config) (*Writer, error) {
	ret := newRetrier(cfg)
	var f storage.File
	err := ret.do(func() error {
		var cerr error
		f, cerr = cfg.Backend().Create(path)
		return cerr
	})
	if err != nil {
		return nil, fmt.Errorf("blockio: create %s: %w", path, err)
	}
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = iomodel.DefaultBlockSize
	}
	w := &Writer{f: f, buf: make([]byte, bs), blockSize: bs, stats: cfg.Stats, ret: ret}
	if cfg.WorkerCount() > 1 {
		w.startAsync()
	}
	return w, nil
}

func (w *Writer) startAsync() {
	a := &asyncWriter{
		blocks: make(chan []byte),
		free:   make(chan []byte, 1),
		done:   make(chan struct{}),
	}
	a.free <- make([]byte, w.blockSize)
	w.async = a
	go func() {
		defer close(a.done)
		// flushed tracks the bytes known persisted, the rollback point for
		// retried appends (see retrier.writeBlock); it is goroutine-local
		// because only this goroutine touches the file.
		var flushed int64
		for b := range a.blocks {
			if a.error() == nil {
				if err := w.ret.writeBlock(w.f, b, flushed); err != nil {
					a.setErr(fmt.Errorf("blockio: write %s: %w", w.f.Name(), err))
				} else {
					flushed += int64(len(b))
				}
			}
			// flush handed the block over cut to its fill level; Write
			// needs it back at full length.
			a.free <- b[:w.blockSize]
		}
	}()
}

// Write appends p to the file, flushing full blocks as they fill.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	total := 0
	for len(p) > 0 {
		c := copy(w.buf[w.n:], p)
		w.n += c
		p = p[c:]
		total += c
		if w.n == w.blockSize {
			if err := w.flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func (w *Writer) flush() error {
	if w.n == 0 {
		return nil
	}
	if w.async != nil {
		if err := w.async.error(); err != nil {
			return err
		}
		// Writes of a Writer are always appends and therefore sequential; the
		// block is charged at hand-off so the accounting order matches the
		// synchronous mode exactly.
		w.stats.CountWrite(w.n, false)
		w.written += int64(w.n)
		w.async.blocks <- w.buf[:w.n]
		w.buf = <-w.async.free
		w.n = 0
		return nil
	}
	// w.written is exactly the persisted length here (every prior flush
	// succeeded or we would have failed), so it is the rollback point for
	// retried appends.
	if err := w.ret.writeBlock(w.f, w.buf[:w.n], w.written); err != nil {
		return fmt.Errorf("blockio: write %s: %w", w.f.Name(), err)
	}
	// Writes of a Writer are always appends and therefore sequential.
	w.stats.CountWrite(w.n, false)
	w.written += int64(w.n)
	w.n = 0
	return nil
}

// BytesWritten reports the number of payload bytes accepted so far (including
// bytes still in the buffer).
func (w *Writer) BytesWritten() int64 { return w.written + int64(w.n) }

// Name returns the underlying file path.
func (w *Writer) Name() string { return w.f.Name() }

// Close flushes the final partial block, waits for any in-flight
// asynchronous writes, and closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	ferr := w.flush()
	if w.async != nil {
		close(w.async.blocks)
		<-w.async.done
		if ferr == nil {
			ferr = w.async.error()
		}
	}
	w.buf = nil
	if ferr != nil {
		w.f.Close()
		return ferr
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("blockio: close %s: %w", w.f.Name(), err)
	}
	return nil
}

// Reader reads a file in blocks of the configured size, counting one read I/O
// per block fetched.  A read that does not immediately follow the previously
// fetched block (because Seek moved the position) is counted as random.
// Reader is not safe for concurrent use.
//
// With cfg.Workers > 1 the Reader is double-buffered: a background goroutine
// fetches the next block while the foreground decodes the current one.  A
// block is charged to Stats when it is delivered to the consumer, not when it
// is physically fetched, so a purely sequential scan accounts exactly the
// same I/Os (count, order, and sequential/random classification) as the
// synchronous mode.  The first SeekTo permanently drops the reader back to
// synchronous fetching: a seeking access pattern gains nothing from
// sequential prefetch, and the fallback keeps random-I/O accounting exact.
type Reader struct {
	f          storage.File
	buf        []byte
	r, n       int
	blockSize  int
	stats      *iomodel.Stats
	ret        retrier
	fileOffset int64 // offset of the byte after the buffered data
	nextSeq    int64 // file offset at which the next read is sequential
	size       int64
	closed     bool
	pf         *prefetcher
}

// pfBlock is one block fetched ahead of the consumer.
type pfBlock struct {
	buf []byte
	n   int
	off int64
	err error
}

// prefetcher is the background block fetcher.  Two block buffers circulate
// between the goroutine and the consumer, so prefetching never holds more
// than 2*BlockSize bytes.
type prefetcher struct {
	blocks chan pfBlock
	free   chan []byte
	stop   chan struct{}
}

// NewReader opens the file at path on cfg's storage backend for
// block-buffered reading.
func NewReader(path string, cfg iomodel.Config) (*Reader, error) {
	ret := newRetrier(cfg)
	var f storage.File
	err := ret.do(func() error {
		var oerr error
		f, oerr = cfg.Backend().Open(path)
		return oerr
	})
	if err != nil {
		return nil, fmt.Errorf("blockio: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockio: stat %s: %w", path, err)
	}
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = iomodel.DefaultBlockSize
	}
	r := &Reader{f: f, buf: make([]byte, bs), blockSize: bs, stats: cfg.Stats, ret: ret, size: size}
	if cfg.WorkerCount() > 1 && r.size > int64(bs) {
		r.startPrefetch(0)
	}
	return r, nil
}

// startPrefetch launches the background fetcher at the given file offset.
func (r *Reader) startPrefetch(from int64) {
	pf := &prefetcher{
		blocks: make(chan pfBlock, 1),
		free:   make(chan []byte, 2),
		stop:   make(chan struct{}),
	}
	pf.free <- make([]byte, r.blockSize)
	pf.free <- make([]byte, r.blockSize)
	r.pf = pf
	go func() {
		defer close(pf.blocks)
		off := from
		for off < r.size {
			var buf []byte
			select {
			case buf = <-pf.free:
			case <-pf.stop:
				return
			}
			n, err := r.ret.readAt(r.f, buf[:r.blockSize], off)
			if err == io.EOF && n > 0 {
				err = nil // Size() bounds the loop; a short final block is not an error
			}
			if n == 0 && err == nil {
				err = io.EOF
			}
			select {
			case pf.blocks <- pfBlock{buf: buf, n: n, off: off, err: err}:
			case <-pf.stop:
				return
			}
			if err != nil {
				return
			}
			off += int64(n)
		}
	}()
}

// stopPrefetch terminates the background fetcher and drains its channel so
// the goroutine always exits.
func (r *Reader) stopPrefetch() {
	if r.pf == nil {
		return
	}
	close(r.pf.stop)
	// The fetcher closes pf.blocks on its way out; drain until it has.
	for range r.pf.blocks {
	}
	r.pf = nil
}

// Size returns the total size of the underlying file in bytes.
func (r *Reader) Size() int64 { return r.size }

// Name returns the underlying file path.
func (r *Reader) Name() string { return r.f.Name() }

func (r *Reader) fill() error {
	if r.r < r.n {
		return nil
	}
	if r.fileOffset >= r.size {
		return io.EOF
	}
	random := r.fileOffset != r.nextSeq
	if r.pf != nil {
		blk, ok := <-r.pf.blocks
		if !ok {
			// The fetcher stopped early; fall back to synchronous reads.
			r.pf = nil
			return r.fill()
		}
		if blk.err != nil {
			if blk.err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("blockio: read %s: %w", r.f.Name(), blk.err)
		}
		// The fetcher walks the file strictly sequentially from the offset
		// prefetching started at, so the delivered block is exactly the one
		// the consumer needs next.
		old := r.buf
		r.buf = blk.buf
		r.pf.free <- old
		r.stats.CountRead(blk.n, random)
		r.r, r.n = 0, blk.n
		r.fileOffset += int64(blk.n)
		r.nextSeq = r.fileOffset
		return nil
	}
	n, err := r.ret.readAt(r.f, r.buf[:r.blockSize], r.fileOffset)
	if n == 0 {
		if err == io.EOF || err == nil {
			return io.EOF
		}
		return fmt.Errorf("blockio: read %s: %w", r.f.Name(), err)
	}
	r.stats.CountRead(n, random)
	r.r, r.n = 0, n
	r.fileOffset += int64(n)
	r.nextSeq = r.fileOffset
	return nil
}

// Read implements io.Reader over the block buffer.
func (r *Reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, ErrClosed
	}
	if err := r.fill(); err != nil {
		return 0, err
	}
	c := copy(p, r.buf[r.r:r.n])
	r.r += c
	return c, nil
}

// ReadFull fills p entirely or returns io.EOF (no partial-record reads occur
// when the file contains whole fixed-size records) or io.ErrUnexpectedEOF.
func (r *Reader) ReadFull(p []byte) error {
	got := 0
	for got < len(p) {
		n, err := r.Read(p[got:])
		got += n
		if err != nil {
			if err == io.EOF && got == 0 {
				return io.EOF
			}
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Seek repositions the reader to the absolute offset.  The next block fetch
// is counted as a random I/O unless the offset continues the previous block.
// Seeking disables prefetching for the rest of the reader's life: blocks
// fetched ahead of a seek would be charged I/Os a synchronous reader never
// performs.
func (r *Reader) SeekTo(offset int64) error {
	if r.closed {
		return ErrClosed
	}
	if offset < 0 {
		return fmt.Errorf("blockio: negative seek offset %d", offset)
	}
	r.stopPrefetch()
	r.r, r.n = 0, 0
	r.fileOffset = offset
	return nil
}

// Offset returns the file offset of the next byte Read will return.
func (r *Reader) Offset() int64 {
	return r.fileOffset - int64(r.n-r.r)
}

// Close closes the underlying file.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.stopPrefetch()
	r.buf = nil
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("blockio: close %s: %w", r.f.Name(), err)
	}
	return nil
}

// Remove deletes the file at path from cfg's storage backend, ignoring
// not-exist errors.  It is the cleanup helper used for intermediate files.
func Remove(path string, cfg iomodel.Config) error {
	err := cfg.Backend().Remove(path)
	if err != nil && !storage.IsNotExist(err) {
		return err
	}
	return nil
}
