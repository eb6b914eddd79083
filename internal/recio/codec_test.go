package recio

import (
	"encoding/hex"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"extscc/internal/blockio"
	"extscc/internal/iomodel"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// varintConfig is testConfig with the varint codec family selected.
func varintConfig(t *testing.T) iomodel.Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.Codec = record.FamilyVarint
	return cfg
}

// fixedConfig is testConfig with the fixed codec family selected explicitly
// (the process default is varint, so fixed-layout behaviour must be opted
// into).
func fixedConfig(t *testing.T) iomodel.Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.Codec = record.FamilyFixed
	return cfg
}

// makeEdges builds n edges sorted by source with small gaps — the shape of a
// sorted run, where delta encoding shines.
func makeEdges(n int) []record.Edge {
	edges := make([]record.Edge, n)
	for i := range edges {
		edges[i] = record.Edge{U: uint32(i / 4), V: uint32(i % 7 * 3)}
	}
	return edges
}

// TestFramedRoundTrip writes with the varint family and reads the records
// back, across several frames and block boundaries (frameCap under the tiny
// 64-byte test block is small, so even 500 records span many frames).
func TestFramedRoundTrip(t *testing.T) {
	cfg := varintConfig(t)
	path := filepath.Join(t.TempDir(), "framed.bin")
	edges := makeEdges(500)

	w, err := NewWriter(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Framed() {
		t.Fatal("varint config produced an unframed writer")
	}
	for _, e := range edges {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Framed() {
		t.Fatal("framed file not detected")
	}
	if n, err := r.Count(); err != nil || n != int64(len(edges)) {
		t.Fatalf("framed Count = %d, %v; want %d (frame-index footer)", n, err, len(edges))
	}
	for i, want := range edges {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestAutoDetectWithFixedConfig reads a framed file under a fixed-codec
// configuration (and vice versa): the reader dispatches on the file, not the
// config, so codec families mix freely within one run.
func TestAutoDetectWithFixedConfig(t *testing.T) {
	fixedCfg := testConfig(t)
	varCfg := varintConfig(t)
	edges := makeEdges(100)

	framed := filepath.Join(t.TempDir(), "framed.bin")
	if err := WriteSlice(framed, record.EdgeCodec{}, varCfg, edges); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(framed, record.EdgeCodec{}, fixedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) || got[42] != edges[42] {
		t.Fatalf("framed file misread under fixed config: %d records", len(got))
	}

	raw := filepath.Join(t.TempDir(), "raw.bin")
	if err := WriteSlice(raw, record.EdgeCodec{}, fixedCfg, edges); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(raw, record.EdgeCodec{}, varCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) || got[42] != edges[42] {
		t.Fatalf("fixed file misread under varint config: %d records", len(got))
	}
}

// TestVarintShrinksFileAndIOs pins the point of the codec layer: the same
// records occupy fewer bytes, fewer blocks, and fewer accounted write I/Os.
func TestVarintShrinksFileAndIOs(t *testing.T) {
	edges := makeEdges(2000)

	write := func(cfg iomodel.Config, path string) (int64, int64) {
		if err := WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
			t.Fatal(err)
		}
		f, err := cfg.Backend().Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		return size, cfg.Stats.Snapshot().WriteBlocks
	}

	// A realistic block size: with the 64-byte test block a frame holds only
	// a handful of records and the 14-byte headers dominate.
	fixedCfg := fixedConfig(t)
	fixedCfg.BlockSize, fixedCfg.Memory = 4096, 64*1024
	fixedSize, fixedWrites := write(fixedCfg, filepath.Join(t.TempDir(), "fixed.bin"))
	varCfg := varintConfig(t)
	varCfg.BlockSize, varCfg.Memory = 4096, 64*1024
	varSize, varWrites := write(varCfg, filepath.Join(t.TempDir(), "varint.bin"))

	if fixedSize != int64(len(edges))*8 {
		t.Fatalf("fixed file is %d bytes, want %d", fixedSize, len(edges)*8)
	}
	if varSize*2 > fixedSize {
		t.Fatalf("varint file is %d bytes vs fixed %d; want at least 2x smaller", varSize, fixedSize)
	}
	if varWrites >= fixedWrites {
		t.Fatalf("varint charged %d write I/Os, fixed %d; compression must reduce block writes", varWrites, fixedWrites)
	}

	// Logical volume is codec-independent, so the compression ratio reflects
	// the physical shrink.
	if r := fixedCfg.Stats.Snapshot().CompressionRatio(); r < 0.99 || r > 1.01 {
		t.Fatalf("fixed compression ratio = %.3f, want ~1.0", r)
	}
	if r := varCfg.Stats.Snapshot().CompressionRatio(); r < 2 {
		t.Fatalf("varint compression ratio = %.3f, want >= 2", r)
	}
}

// TestFixedLayoutIsByteIdentical pins backward compatibility: under the
// fixed family the produced file is exactly the concatenation of the
// per-record encodings — the pre-codec format.
func TestFixedLayoutIsByteIdentical(t *testing.T) {
	cfg := fixedConfig(t)
	path := filepath.Join(t.TempDir(), "fixed.bin")
	labels := []record.Label{{Node: 7, SCC: 3}, {Node: 9, SCC: 3}, {Node: 11, SCC: 11}}
	if err := WriteSlice(path, record.LabelCodec{}, cfg, labels); err != nil {
		t.Fatal(err)
	}

	var want []byte
	codec := record.LabelCodec{}
	buf := make([]byte, codec.Size())
	for _, l := range labels {
		codec.Encode(l, buf)
		want = append(want, buf...)
	}

	f, err := cfg.Backend().Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(want)+1)
	n, err := f.ReadAt(got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("file has %d bytes, want %d", n, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestFramedFileWithoutFooterFailsTyped pins that a framed file always ends
// in its frame-index footer.  The 500-edge varint file (125 frames of 4
// records under the 64-byte test block) is cut at the offset of its last
// frame, which drops the footer and 4 records: a stream, a count and both
// seeks must fail with ErrCorrupt instead of serving the 496 survivors.
func TestFramedFileWithoutFooterFailsTyped(t *testing.T) {
	cfg := varintConfig(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "framed.bin")
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, makeEdges(500)); err != nil {
		t.Fatal(err)
	}
	data, err := storage.ReadFile(cfg.Backend(), path)
	if err != nil {
		t.Fatal(err)
	}
	flen, ok, detail := blockio.ParseFooterTrailer(data[len(data)-blockio.FooterTrailerSize:])
	if !ok || detail != "" {
		t.Fatalf("framed file carries no valid footer trailer (ok=%v, %q)", ok, detail)
	}
	base := int64(len(data) - flen)
	footer, detail := blockio.ParseFooter(data[base:], base)
	if detail != "" {
		t.Fatal(detail)
	}
	last := footer.Entries[len(footer.Entries)-1]
	if len(footer.Entries) != 125 || last.Count != 4 {
		t.Fatalf("file has %d frames, the last of %d records; want 125 of 4", len(footer.Entries), last.Count)
	}
	cut := filepath.Join(dir, "cut.bin")
	f, err := cfg.Backend().Create(cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:last.Offset]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if got, err := ReadAll(cut, record.EdgeCodec{}, cfg); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("ReadAll of a footerless framed file = %d records, %v; want ErrCorrupt", len(got), err)
	}
	if _, err := CountRecords(cut, record.EdgeCodec{}, cfg); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("CountRecords of a footerless framed file: %v, want ErrCorrupt", err)
	}
	r, err := NewReader(cut, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.SeekTo(10); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("SeekTo on a footerless framed file: %v, want ErrCorrupt", err)
	}
	if _, err := r.SeekToKey(1); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("SeekToKey on a footerless framed file: %v, want ErrCorrupt", err)
	}
}

// TestFramedSeekMatchesFixed is the recio-level acceptance pin: SeekTo and
// sequential reads after it return byte-identical records on a framed+footer
// file and on the fixed-layout file of the same records, at every probed
// index, including repeated, backward and past-the-end probes.
func TestFramedSeekMatchesFixed(t *testing.T) {
	dir := t.TempDir()
	edges := makeEdges(500)
	fixedPath := filepath.Join(dir, "fixed.bin")
	if err := WriteSlice(fixedPath, record.EdgeCodec{}, fixedConfig(t), edges); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{record.FamilyVarint, record.FamilyCompress} {
		cfg := testConfig(t)
		cfg.Codec = family
		framedPath := filepath.Join(dir, family+".bin")
		if err := WriteSlice(framedPath, record.EdgeCodec{}, cfg, edges); err != nil {
			t.Fatal(err)
		}
		fr, err := NewReader(framedPath, record.EdgeCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		xr, err := NewReader(fixedPath, record.EdgeCodec{}, fixedConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		got, ferr := fr.Count()
		want, xerr := xr.Count()
		if ferr != nil || xerr != nil || got != want {
			t.Fatalf("%s: Count = %d (%v), fixed says %d (%v)", family, got, ferr, want, xerr)
		}
		probes := []int64{0, 499, 250, 251, 1, 498, 7, 7, 123, 0}
		for _, idx := range probes {
			if err := fr.SeekTo(idx); err != nil {
				t.Fatalf("%s: SeekTo(%d): %v", family, idx, err)
			}
			if err := xr.SeekTo(idx); err != nil {
				t.Fatalf("fixed SeekTo(%d): %v", idx, err)
			}
			for k := 0; k < 3 && idx+int64(k) < int64(len(edges)); k++ {
				fgot, ferr := fr.Read()
				xgot, xerr := xr.Read()
				if ferr != nil || xerr != nil {
					t.Fatalf("%s: read after SeekTo(%d)+%d: %v / %v", family, idx, k, ferr, xerr)
				}
				if fgot != xgot {
					t.Fatalf("%s: SeekTo(%d)+%d = %+v, fixed reads %+v", family, idx, k, fgot, xgot)
				}
			}
		}
		// Past-the-end parks at EOF on both layouts.
		if err := fr.SeekTo(int64(len(edges))); err != nil {
			t.Fatalf("%s: SeekTo(end): %v", family, err)
		}
		if _, err := fr.Read(); err != io.EOF {
			t.Fatalf("%s: read past the end returned %v, want EOF", family, err)
		}
		fr.Close()
		xr.Close()
	}
}

// TestSeekToKeyBothLayouts pins the key probe on a key-sorted file: the
// returned index is the first record with KeyOf >= key on the fixed layout
// and on both framed families, for present keys, absent keys, the global
// minimum and past-the-maximum.
func TestSeekToKeyBothLayouts(t *testing.T) {
	dir := t.TempDir()
	var edges []record.Edge
	for u := uint32(0); u < 300; u += 3 { // keys have gaps: u<<32|v with v = u+1
		edges = append(edges, record.Edge{U: u, V: u + 1})
	}
	for _, family := range []string{record.FamilyFixed, record.FamilyVarint, record.FamilyCompress} {
		cfg := testConfig(t)
		cfg.Codec = family
		path := filepath.Join(dir, "bykey-"+family+".bin")
		if err := WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(path, record.EdgeCodec{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seek := func(key uint64, wantIdx int64) {
			t.Helper()
			idx, err := r.SeekToKey(key)
			if err != nil {
				t.Fatalf("%s: SeekToKey(%d): %v", family, key, err)
			}
			if idx != wantIdx {
				t.Fatalf("%s: SeekToKey(%d) = %d, want %d", family, key, idx, wantIdx)
			}
			if wantIdx < int64(len(edges)) {
				got, err := r.Read()
				if err != nil {
					t.Fatalf("%s: read after SeekToKey(%d): %v", family, key, err)
				}
				if got != edges[wantIdx] {
					t.Fatalf("%s: SeekToKey(%d) read %+v, want %+v", family, key, got, edges[wantIdx])
				}
			} else if _, err := r.Read(); err != io.EOF {
				t.Fatalf("%s: read past max key returned %v, want EOF", family, err)
			}
		}
		key := func(i int) uint64 { return uint64(edges[i].U)<<32 | uint64(edges[i].V) }
		seek(0, 0)                                   // below the minimum
		seek(key(0), 0)                              // exact minimum
		seek(key(42), 42)                            // exact interior hit
		seek(key(42)+1, 43)                          // absent key rounds up
		seek(key(len(edges)-1), int64(len(edges)-1)) // exact maximum
		seek(key(len(edges)-1)+1, int64(len(edges))) // past the maximum
		r.Close()
	}
}

// TestCountRecordsFramed reads a framed file's count off its frame-index
// footer.
func TestCountRecordsFramed(t *testing.T) {
	cfg := varintConfig(t)
	path := filepath.Join(t.TempDir(), "framed.bin")
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, makeEdges(333)); err != nil {
		t.Fatal(err)
	}
	n, err := CountRecords(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 333 {
		t.Fatalf("CountRecords = %d, want 333", n)
	}
}

// TestFramedEmptyFile: a varint writer that never received a record produces
// an empty file, which reads back as zero records under any config.
func TestFramedEmptyFile(t *testing.T) {
	cfg := varintConfig(t)
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path, record.EdgeCodec{}, testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d records", len(got))
	}
}

// TestFramedWrongType: opening a framed file under the wrong record type
// must fail at open (the codec ID in the frame header disagrees).
func TestFramedWrongType(t *testing.T) {
	cfg := varintConfig(t)
	path := filepath.Join(t.TempDir(), "edges.bin")
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, makeEdges(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(path, record.LabelCodec{}, cfg); err == nil {
		t.Fatal("edge file opened as a label file")
	}
}

// TestFramedTruncatedPayload: cutting a framed file mid-payload surfaces a
// clear error instead of silent record loss.  The cut reaches through the
// frame-index footer into the last frame's payload; a cut at a frame
// boundary is TestFramedFileWithoutFooterFailsTyped.
func TestFramedTruncatedPayload(t *testing.T) {
	cfg := varintConfig(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "framed.bin")
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, makeEdges(50)); err != nil {
		t.Fatal(err)
	}
	f, err := cfg.Backend().Open(path)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, blockio.FooterTrailerSize)
	if _, err := f.ReadAt(tail, size-blockio.FooterTrailerSize); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	flen, ok, detail := blockio.ParseFooterTrailer(tail)
	if !ok || detail != "" {
		t.Fatalf("framed file carries no valid footer trailer (ok=%v, %q)", ok, detail)
	}
	data := make([]byte, size-int64(flen)-3)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	f.Close()
	cut := filepath.Join(dir, "cut.bin")
	cf, err := cfg.Backend().Create(cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(cut, record.EdgeCodec{}, cfg); err == nil {
		t.Fatal("truncated framed file read without error")
	}
}

// TestTinyFixedFileSniff: files shorter than a frame header (a single node
// record is 4 bytes) must still read correctly through the sniffing path.
func TestTinyFixedFileSniff(t *testing.T) {
	cfg := testConfig(t)
	path := filepath.Join(t.TempDir(), "tiny.bin")
	if err := WriteSlice(path, record.NodeCodec{}, cfg, []record.NodeID{99}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 99 {
		t.Fatalf("tiny file read %v", got)
	}
}

// TestFixedSeekAfterSniff: the sniffed head bytes must not break record
// seeks on fixed files (SeekTo discards the head buffer).
func TestFixedSeekAfterSniff(t *testing.T) {
	cfg := fixedConfig(t)
	path := filepath.Join(t.TempDir(), "seek.bin")
	nodes := make([]record.NodeID, 64)
	for i := range nodes {
		nodes[i] = uint32(i * 10)
	}
	if err := WriteSlice(path, record.NodeCodec{}, cfg, nodes); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(path, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Read one record out of the sniffed head, then seek backwards over it.
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if err := r.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("SeekTo(0) read %d, want 0", got)
	}
	if err := r.SeekTo(63); err != nil {
		t.Fatal(err)
	}
	if got, err = r.Read(); err != nil || got != 630 {
		t.Fatalf("SeekTo(63) read %d (%v), want 630", got, err)
	}
}

// TestFixedFileWithMagicCollision: a raw fixed node file whose first record
// is exactly the frame-magic bytes (node id 0xDEC05CEC) must still open —
// the header fails validation (wrong version byte) and the reader falls back
// to the fixed layout.
func TestFixedFileWithMagicCollision(t *testing.T) {
	cfg := fixedConfig(t)
	path := filepath.Join(t.TempDir(), "collide.bin")
	nodes := []record.NodeID{0xDEC05CEC, 5, 6, 7}
	if err := WriteSlice(path, record.NodeCodec{}, cfg, nodes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path, record.NodeCodec{}, cfg)
	if err != nil {
		t.Fatalf("magic-colliding fixed file rejected: %v", err)
	}
	if len(got) != 4 || got[0] != 0xDEC05CEC || got[3] != 7 {
		t.Fatalf("magic-colliding fixed file misread: %v", got)
	}
}

// TestFixedFileWithV1FrameHead: the 16-byte fixed edge file
// ec5cc0de 01010100 00000200 00000202 holds the edges (3737148652, 65793) and
// (131072, 33685504), but its bytes also form a CRC-less version-1 frame of
// one varint edge.  This build reads no version-1 frames and the file is
// shorter than a frame header, so it must read as the two fixed edges.
func TestFixedFileWithV1FrameHead(t *testing.T) {
	cfg := fixedConfig(t)
	path := filepath.Join(t.TempDir(), "v1head.bin")
	edges := []record.Edge{{U: 3737148652, V: 65793}, {U: 131072, V: 33685504}}
	if err := WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
		t.Fatal(err)
	}
	data, err := storage.ReadFile(cfg.Backend(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != "ec5cc0de010101000000020000000202" {
		t.Fatalf("fixed file bytes = %s", got)
	}
	got, err := ReadAll(path, record.EdgeCodec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != edges[0] || got[1] != edges[1] {
		t.Fatalf("fixed file with a v1 frame head read as %v, want %v", got, edges)
	}
}
