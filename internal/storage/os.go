package storage

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// osBackend is the local-filesystem backend: the historical behaviour of
// the repository, byte-identical to the pre-VFS code paths.
type osBackend struct{}

var osSingleton = osBackend{}

// OS returns the local-filesystem backend.
func OS() Backend { return osSingleton }

func (osBackend) Name() string { return "os" }

func (osBackend) Create(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return osFile{f: f}, nil
}

func (osBackend) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osFile{f: f}, nil
}

func (osBackend) Remove(path string) error             { return os.Remove(path) }
func (osBackend) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osBackend) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osBackend) TempPath() string                     { return os.TempDir() }

func (osBackend) MkdirTemp(parent, pattern string) (string, error) {
	if parent == "" {
		parent = os.TempDir()
	}
	return os.MkdirTemp(parent, pattern)
}

func (osBackend) List(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.IsDir() {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// osFile adapts *os.File to the File interface.
type osFile struct {
	f *os.File
}

// Write appends p at the end of the file, as the File contract requires.
// The explicit seek matters: os.File.Write writes at the current seek
// offset, and after a torn write rolled back with Truncate the offset can
// sit beyond EOF — writing there would leave a zero-filled hole that a
// CRC-less fixed-layout file could never detect.  O_APPEND is not an
// option because the same handle must also serve absolute-offset WriteAt
// (the baseline's disk arrays), which Go rejects on append-mode files.
func (o osFile) Write(p []byte) (int, error) {
	if _, err := o.f.Seek(0, io.SeekEnd); err != nil {
		return 0, err
	}
	return o.f.Write(p)
}
func (o osFile) ReadAt(p []byte, off int64) (int, error)  { return o.f.ReadAt(p, off) }
func (o osFile) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }
func (o osFile) Close() error                             { return o.f.Close() }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Name() string                             { return o.f.Name() }

func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
