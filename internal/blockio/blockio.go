// Package blockio provides block-buffered, I/O-counted access to files of a
// storage backend.  Every read and write performed by the external
// algorithms in this repository goes through this package so that the number
// of block transfers (and whether they are sequential or random) is measured
// exactly as in the I/O model of the paper.  The backend (local disk, RAM,
// ...) comes from iomodel.Config.Backend(); the accounting is charged here,
// above the backend, so every backend observes identical I/O counts.
//
// Readers and Writers transfer one block at a time on the caller's
// goroutine and hold a single block buffer each.
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
type Writer struct {
	f         storage.File
	buf       []byte
	n         int
	blockSize int
	stats     *iomodel.Stats
	ret       retrier
	written   int64
	closed    bool
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
	return &Writer{f: f, buf: make([]byte, bs), blockSize: bs, stats: cfg.Stats, ret: ret}, nil
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

// Close flushes the final partial block and closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	ferr := w.flush()
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
	return &Reader{f: f, buf: make([]byte, bs), blockSize: bs, stats: cfg.Stats, ret: ret, size: size}, nil
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

// SeekTo repositions the reader to the absolute offset.  The next block
// fetch is counted as a random I/O unless the offset continues the previous
// block.
func (r *Reader) SeekTo(offset int64) error {
	if r.closed {
		return ErrClosed
	}
	if offset < 0 {
		return fmt.Errorf("blockio: negative seek offset %d", offset)
	}
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
	r.buf = nil
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("blockio: close %s: %w", r.f.Name(), err)
	}
	return nil
}

// Remove deletes the file at path from cfg's storage backend, ignoring
// not-exist errors and retrying a transient failure as cfg allows.  It is
// the cleanup helper used for intermediate files.
func Remove(path string, cfg iomodel.Config) error {
	return newRetrier(cfg).do(func() error {
		if err := cfg.Backend().Remove(path); err != nil && !storage.IsNotExist(err) {
			return err
		}
		return nil
	})
}
