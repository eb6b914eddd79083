package recio

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// readAllOrErr reads every record of the file, returning the records and the
// first error (nil on clean EOF).
func readAllOrErr(path string, cfg iomodel.Config) ([]record.Edge, error) {
	r, err := NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []record.Edge
	for {
		e, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// TestCorruptionSmokeEveryPayloadByte is the integrity acceptance gate:
// flipping ANY single byte of a frame's payload or CRC field must
// surface as ErrCorrupt on read — never as a clean read of different records.
// The file lives on an in-memory backend so each flip patches a fresh copy.
func TestCorruptionSmokeEveryPayloadByte(t *testing.T) {
	mem := storage.NewMem()
	cfg, err := iomodel.Config{
		BlockSize: 256,
		Memory:    1024,
		Codec:     record.FamilyVarint,
		Storage:   mem,
		Stats:     &iomodel.Stats{},
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	const path = "/mem/corrupt/frames.bin"
	edges := makeEdges(60)
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	pristine, err := storage.ReadFile(mem, path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllOrErr(path, cfg)
	if err != nil {
		t.Fatalf("pristine file does not read back: %v", err)
	}
	if len(want) != len(edges) {
		t.Fatalf("pristine read returned %d records, want %d", len(want), len(edges))
	}

	writeCopy := func(data []byte) {
		t.Helper()
		f, err := mem.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The file ends with the frame-index footer; streaming reads never
	// consult it, so the byte-flip sweep splits at its start: flips in the
	// frames region must fail the streaming read, flips in the footer region
	// must fail the seek path (below) while streaming stays clean.
	flen, okTrailer, trailerDetail := blockio.ParseFooterTrailer(pristine[len(pristine)-blockio.FooterTrailerSize:])
	if !okTrailer || trailerDetail != "" {
		t.Fatalf("framed file carries no valid footer trailer (ok=%v, %q)", okTrailer, trailerDetail)
	}
	footerBase := int64(len(pristine) - flen)

	// Every byte from the first frame's CRC field to the footer is either CRC
	// payload or a later frame's header: a flip anywhere there must be caught.
	// The leading header fields (magic, version, codec, counts) are exercised
	// separately below, because a flip there is rejected as a malformed
	// header — also a detection, but not always via the CRC.
	crcStart := int64(blockio.FrameHeaderSize - 4)
	corruptReads := 0
	for off := crcStart; off < footerBase; off++ {
		patched := append([]byte(nil), pristine...)
		patched[off] ^= 1 << (off % 8)
		writeCopy(patched)
		got, err := readAllOrErr(path, cfg)
		if err == nil {
			t.Fatalf("flipping byte %d of %d read back cleanly (%d records)", off, len(pristine), len(got))
		}
		if !errors.Is(err, blockio.ErrCorrupt) {
			t.Fatalf("flipping byte %d failed with %v, want ErrCorrupt", off, err)
		}
		corruptReads++
	}
	if cfg.Stats.Snapshot().CorruptFrames != int64(corruptReads) {
		t.Fatalf("stats counted %d corrupt frames, want %d", cfg.Stats.Snapshot().CorruptFrames, corruptReads)
	}

	// Footer-region flips: the streaming read either stays clean and identical
	// (the frames are intact; most flips land here) or — when the flip hits
	// the footer's start magic, which the streaming reader inspects to know
	// where frames end — fails typed.  Never a clean read of different
	// records.  The seek path must refuse to act on the damaged index with
	// typed corruption in every case, including a flip that kills the end
	// magic: a framed file without its footer is corrupt.  Never a silent
	// mis-seek.
	for off := footerBase; off < int64(len(pristine)); off++ {
		patched := append([]byte(nil), pristine...)
		patched[off] ^= 1 << (off % 8)
		writeCopy(patched)
		got, err := readAllOrErr(path, cfg)
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("flipping footer byte %d silently decoded %d different records", off, len(got))
		}
		if err != nil && !errors.Is(err, blockio.ErrCorrupt) {
			t.Fatalf("flipping footer byte %d failed with %v, want ErrCorrupt", off, err)
		}
		r, err := NewReader(path, record.EdgeCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SeekTo(3); !errors.Is(err, blockio.ErrCorrupt) {
			r.Close()
			t.Fatalf("flipping footer byte %d: SeekTo returned %v, want ErrCorrupt", off, err)
		}
		r.Close()
	}

	// Header-field flips (bytes 4..14 of the first frame): never a clean read
	// of different records — each is rejected with *some* error.
	for off := int64(4); off < int64(blockio.FrameHeaderSize-4); off++ {
		patched := append([]byte(nil), pristine...)
		patched[off] ^= 1
		writeCopy(patched)
		got, err := readAllOrErr(path, cfg)
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("flipping header byte %d silently decoded %d different records", off, len(got))
		}
		if err == nil {
			t.Fatalf("flipping header byte %d read back cleanly", off)
		}
	}

	// Restore and confirm the pristine copy still reads (the harness itself
	// is not what fails the corrupted reads).
	writeCopy(pristine)
	if _, err := readAllOrErr(path, cfg); err != nil {
		t.Fatalf("pristine copy no longer reads: %v", err)
	}
}

// TestCorruptErrorNamesFrameAndOffset pins the error detail: corrupting the
// second frame of a multi-frame file names frame 1 and its byte offset.
func TestCorruptErrorNamesFrameAndOffset(t *testing.T) {
	mem := storage.NewMem()
	cfg, err := iomodel.Config{
		BlockSize: 64, // tiny blocks => small frames => many frames
		Memory:    1024,
		Codec:     record.FamilyVarint,
		Storage:   mem,
		Stats:     &iomodel.Stats{},
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	const path = "/mem/corrupt/multi.bin"
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, makeEdges(200)); err != nil {
		t.Fatal(err)
	}
	data, err := storage.ReadFile(mem, path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second frame: its header starts right after frame 0.
	h0, err := blockio.ParseFrameHeader(data[:blockio.FrameHeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	frame1 := int64(blockio.FrameHeaderSize) + int64(h0.Payload)
	if frame1+int64(blockio.FrameHeaderSize) >= int64(len(data)) {
		t.Fatalf("test needs at least two frames, file is %d bytes", len(data))
	}
	data[frame1+int64(blockio.FrameHeaderSize)] ^= 0x10 // first payload byte of frame 1
	f, err := mem.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = readAllOrErr(path, cfg)
	var ce *blockio.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want a *blockio.CorruptError", err)
	}
	if ce.Frame != 1 {
		t.Fatalf("corruption attributed to frame %d, want 1", ce.Frame)
	}
	if ce.Offset != frame1 {
		t.Fatalf("corruption attributed to byte %d, want %d", ce.Offset, frame1)
	}
	if ce.Path == "" {
		t.Fatal("corruption error names no file")
	}
	wantPrefix := fmt.Sprintf("%s: corrupt frame 1 at byte %d", path, frame1)
	if got := ce.Error(); len(got) < len(wantPrefix) || got[:len(wantPrefix)] != wantPrefix {
		t.Fatalf("error text %q does not start with %q", got, wantPrefix)
	}
}
