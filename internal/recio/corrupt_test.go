package recio

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
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

// putFile replaces the file at path on b with data.
func putFile(t *testing.T, b storage.Backend, path string, data []byte) {
	t.Helper()
	f, err := b.Create(path)
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

// headFlipCase is one framed file of TestCorruptFrameHeadBitFlips: write
// stores its records at path, read reads them back under the same codec.
type headFlipCase struct {
	name  string
	write func(path string, cfg iomodel.Config) error
	read  func(path string, cfg iomodel.Config) error
}

func newHeadFlipCase[T any](name string, codec record.Codec[T], recs []T) headFlipCase {
	return headFlipCase{
		name:  name,
		write: func(path string, cfg iomodel.Config) error { return WriteSlice(path, codec, cfg, recs) },
		read: func(path string, cfg iomodel.Config) error {
			_, err := ReadAll(path, codec, cfg)
			return err
		},
	}
}

// TestCorruptFrameHeadBitFlips: flipping any one of the 144 bits of a framed
// file's first header must fail the read with ErrCorrupt, for the varint
// family and every record type.  A flip in the magic must not turn the file
// into fixed-layout records, and a flip that makes the header name another
// record type's codec is corruption too, not a codec error.
func TestCorruptFrameHeadBitFlips(t *testing.T) {
	nodes := make([]record.NodeID, 81)
	edges := make([]record.Edge, 81)
	labels := make([]record.Label, 81)
	for i := range nodes {
		nodes[i] = record.NodeID(3 * i)
		edges[i] = record.Edge{U: uint32(i / 3), V: uint32(i * 7 % 50)}
		labels[i] = record.Label{Node: uint32(2 * i), SCC: uint32(i / 5 * 10)}
	}
	cases := []headFlipCase{
		newHeadFlipCase("node", record.NodeCodec{}, nodes),
		newHeadFlipCase("edge", record.EdgeCodec{}, edges),
		newHeadFlipCase("label", record.LabelCodec{}, labels),
	}
	family := record.FamilyVarint
	for _, tc := range cases {
		t.Run(family+"/"+tc.name, func(t *testing.T) {
			mem := storage.NewMem()
			cfg, err := iomodel.Config{BlockSize: 4096, Memory: 16384, Codec: family, Storage: mem, Stats: &iomodel.Stats{}}.Validate()
			if err != nil {
				t.Fatal(err)
			}
			const path = "/mem/headflip/file.bin"
			if err := tc.write(path, cfg); err != nil {
				t.Fatal(err)
			}
			pristine, err := storage.ReadFile(mem, path)
			if err != nil {
				t.Fatal(err)
			}
			if !blockio.HasFrameMagic(pristine) {
				t.Fatalf("%s file is not framed", family)
			}
			if err := tc.read(path, cfg); err != nil {
				t.Fatalf("pristine file does not read back: %v", err)
			}
			for bit := 0; bit < 8*blockio.FrameHeaderSize; bit++ {
				patched := append([]byte(nil), pristine...)
				patched[bit/8] ^= 1 << (bit % 8)
				putFile(t, mem, path, patched)
				err := tc.read(path, cfg)
				if !errors.Is(err, blockio.ErrCorrupt) {
					t.Fatalf("flipping bit %d of byte %d of the %d-byte file: got %v, want ErrCorrupt", bit%8, bit/8, len(pristine), err)
				}
			}
		})
	}
}

// framedFile hand-builds a framed file as a build writing codec id wrote
// it: one frame of count records, with a valid CRC and frame-index footer.
func framedFile(id uint8, count int, payload []byte, minKey, maxKey uint64) []byte {
	file := make([]byte, blockio.FrameHeaderSize)
	blockio.PutFrameHeader(file, blockio.FrameHeader{Codec: id, Count: uint32(count), Payload: uint32(len(payload))}, payload)
	file = append(file, payload...)
	return blockio.AppendFooter(file, []blockio.FooterEntry{{Count: uint32(count), MinKey: minKey, MaxKey: maxKey}})
}

// checkRetiredFailsTyped pins that opening or reading the file fails with
// ErrCorrupt: a retired id stays reserved, so the file is never decoded as
// another layout.
func checkRetiredFailsTyped[T any](t *testing.T, name string, file []byte, codec record.Codec[T]) {
	t.Helper()
	mem := storage.NewMem()
	cfg, err := iomodel.Config{Storage: mem, Stats: &iomodel.Stats{}}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	path := "/mem/retired/" + name + ".bin"
	putFile(t, mem, path, file)
	if _, err := NewReader(path, codec, cfg); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("NewReader on a %s file: got %v, want ErrCorrupt", name, err)
	}
	if got, err := ReadAll(path, codec, cfg); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("ReadAll on a %s file: got %d records and %v, want ErrCorrupt", name, len(got), err)
	}
}

// TestRetiredCompressFileFailsTyped hand-builds an edge file of the retired
// compress family — one raw-mode frame (mode byte 0, then the fixed layout)
// under CodecID 7 — and pins that it fails typed.
func TestRetiredCompressFileFailsTyped(t *testing.T) {
	edges := []record.Edge{{U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6}}
	payload := []byte{0}
	rec := make([]byte, record.EdgeCodec{}.Size())
	for _, e := range edges {
		record.EdgeCodec{}.Encode(e, rec)
		payload = append(payload, rec...)
	}
	file := framedFile(7, len(edges), payload, record.KeyOf(edges[0]), record.KeyOf(edges[len(edges)-1]))
	checkRetiredFailsTyped(t, "compress-edges", file, record.EdgeCodec{})
}

// TestRetiredEdgeAugFileFailsTyped hand-builds an EdgeAug file in the
// retired 40-byte varint layout — under CodecID 4, two zigzag deltas and
// the four uvarint keys of both endpoints per record — and pins that it
// fails typed when read as the current EdgeAug.  The same two records
// framed in the current layout, under CodecID 13, read back.
func TestRetiredEdgeAugFileFailsTyped(t *testing.T) {
	// (1, 2) and (3, 2), sorted by target, each endpoint keyed by
	// (deg, prod) = (2, 1).
	payload := []byte{2, 4, 2, 1, 2, 1, 4, 0, 2, 1, 2, 1}
	checkRetiredFailsTyped(t, "edgeaug-40", framedFile(4, 2, payload, 1<<32|2, 3<<32|2), record.EdgeAugCodec{})

	recs := []record.EdgeAug{{U: 1, V: 2, InU: 1, OutU: 1}, {U: 3, V: 2, InU: 1, OutU: 1}}
	current := framedFile(uint8(record.CodecVarintEdgeAug), 2, record.VarintEdgeAugCodec{}.AppendBlock(nil, recs), 1<<32|2, 3<<32|2)
	mem := storage.NewMem()
	cfg, err := iomodel.Config{Storage: mem, Stats: &iomodel.Stats{}}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	putFile(t, mem, "/mem/edgeaug-16.bin", current)
	if got, err := ReadAll("/mem/edgeaug-16.bin", record.EdgeAugCodec{}, cfg); err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("the current layout read back %v (%v), want %v", got, err, recs)
	}
}

// TestFixedFileNearMagicFailsTyped pins the other side of the sniff: a fixed
// file of at least a header's length whose first id lies within one bit of
// the frame magic fails typed and is never decoded, while a first id two bits
// from it still reads as fixed.
func TestFixedFileNearMagicFailsTyped(t *testing.T) {
	cfg := fixedConfig(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		first   record.NodeID
		corrupt bool
	}{
		{0xDEC05CEC, true},
		{0xDEC05CEC ^ 1<<9, true},
		{0xDEC05CEC ^ 1<<9 ^ 1<<30, false},
	} {
		path := filepath.Join(dir, fmt.Sprintf("near-%08x.bin", tc.first))
		nodes := []record.NodeID{tc.first, 5, 6, 7, 8, 9}
		if err := WriteSlice(path, record.NodeCodec{}, cfg, nodes); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(path, record.NodeCodec{}, cfg)
		if tc.corrupt {
			if !errors.Is(err, blockio.ErrCorrupt) {
				t.Fatalf("first id %08x: got %v (%d records), want ErrCorrupt", tc.first, err, len(got))
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, nodes) {
			t.Fatalf("first id %08x: read %v (%v), want %v", tc.first, got, err, nodes)
		}
	}
}

// TestFooterReadFaultRetried: a transient fault on a framed reader's footer
// read fails that one call with ErrInjected but is not cached, so the
// repeated Count or SeekToKey loads the footer and answers correctly.
func TestFooterReadFaultRetried(t *testing.T) {
	mem := storage.NewMem()
	base, err := iomodel.Config{BlockSize: 256, Memory: 4096, Codec: record.FamilyVarint, Storage: mem, Stats: &iomodel.Stats{}}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	const path = "/mem/footer/labels.bin"
	labels := make([]record.Label, 500)
	for i := range labels {
		labels[i] = record.Label{Node: uint32(2 * i), SCC: uint32(i % 17)}
	}
	if err := WriteSlice(path, record.LabelCodec{}, base, labels); err != nil {
		t.Fatal(err)
	}
	// open returns a reader whose next backend read, the first of its footer
	// load, faults once.
	open := func() *Reader[record.Label] {
		t.Helper()
		count := storage.NewFaultPlan()
		cfg := base
		cfg.Storage = storage.NewFault(mem, count)
		r, err := NewReader(path, record.LabelCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		plan := storage.NewFaultPlan(&storage.FaultRule{
			Op: storage.OpRead, N: count.OpCount(storage.OpRead) + 1, Count: 1, Mode: storage.ModeTransient,
		})
		cfg.Storage = storage.NewFault(mem, plan)
		if r, err = NewReader(path, record.LabelCodec{}, cfg); err != nil {
			t.Fatal(err)
		}
		return r
	}

	r := open()
	if _, err := r.Count(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("first Count: got %v, want ErrInjected", err)
	}
	if n, err := r.Count(); err != nil || n != int64(len(labels)) {
		t.Fatalf("repeated Count = %d, %v; want %d", n, err, len(labels))
	}
	r.Close()

	r = open()
	defer r.Close()
	const node = 2 * 321
	if _, err := r.SeekToKey(uint64(node) << 32); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("first SeekToKey: got %v, want ErrInjected", err)
	}
	idx, err := r.SeekToKey(uint64(node) << 32)
	if err != nil || idx != 321 {
		t.Fatalf("repeated SeekToKey = %d, %v; want 321", idx, err)
	}
	if l, err := r.Read(); err != nil || l != labels[321] {
		t.Fatalf("read after the repeated SeekToKey: %v, %v; want %v", l, err, labels[321])
	}
}
