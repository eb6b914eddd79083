package blockio

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"extscc/internal/record"
)

// Fuzz targets for the frame-index footer parser.  The footer is trusted to
// seek into compressed files, so its parser carries the same obligations as
// the frame parser: arbitrary bytes must never panic or fabricate an index,
// a decoded footer must satisfy every structural invariant the seek path
// relies on, and any single-byte damage to a valid footer must either be
// rejected with a corruption detail or leave the decoded index identical —
// silently decoding a *different* index is the one forbidden outcome.  The
// seed corpus under testdata/fuzz pins a valid footer, truncations and a
// CRC flip; `go test` replays the seeds, `go test -fuzz` explores further.

// fuzzFooterEntries derives a deterministic, valid entry list from the fuzz
// inputs: frame counts and key ranges vary with seed, offsets and record
// indices chain correctly.
func fuzzFooterEntries(frames int, seed uint64) []FooterEntry {
	entries := make([]FooterEntry, frames)
	offset, first := int64(0), int64(0)
	for i := range entries {
		seed = seed*6364136223846793005 + 1442695040888963407
		count := uint32(1 + (seed>>33)%300)
		minKey := seed % (1 << 40)
		entries[i] = FooterEntry{
			Offset:      offset,
			FirstRecord: first,
			Count:       count,
			MinKey:      minKey,
			MaxKey:      minKey + (seed>>13)%1000,
		}
		offset += int64(FrameHeaderSize) + int64(count)
		first += int64(count)
	}
	return entries
}

// FuzzFooterRoundTrip encodes a valid footer, checks it parses back exactly,
// then flips one byte: the mutated footer must either fail with a detail or
// decode to the identical index (flips in the CRC field, the trailer length
// or the end magic are invisible to ParseFooter — ParseFooterTrailer guards
// those — but can never change the decoded entries).
func FuzzFooterRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(0), uint16(0))
	f.Add(uint8(7), uint64(12345), uint16(100))
	f.Add(uint8(40), uint64(1<<60), uint16(9999))
	f.Fuzz(func(t *testing.T, frames8 uint8, seed uint64, flipAt16 uint16) {
		frames := 1 + int(frames8)%64
		entries := fuzzFooterEntries(frames, seed)
		buf := AppendFooter(nil, entries)
		if len(buf) != FooterSize(frames) {
			t.Fatalf("encoded footer is %d bytes, want %d", len(buf), FooterSize(frames))
		}
		base := entries[frames-1].Offset + 1
		parsed, detail := ParseFooter(buf, base)
		if detail != "" {
			t.Fatalf("valid footer rejected: %s", detail)
		}
		if !reflect.DeepEqual(parsed.Entries, entries) {
			t.Fatal("footer round trip altered the entries")
		}
		if want := entries[frames-1].FirstRecord + int64(entries[frames-1].Count); parsed.TotalRecords != want {
			t.Fatalf("footer round trip total %d, want %d", parsed.TotalRecords, want)
		}

		mutated := bytes.Clone(buf)
		mutated[int(flipAt16)%len(mutated)] ^= 0x40
		reparsed, detail := ParseFooter(mutated, base)
		if detail == "" && !reflect.DeepEqual(reparsed, parsed) {
			t.Fatalf("flipping byte %d decoded a different index without a corruption detail", int(flipAt16)%len(buf))
		}
	})
}

// FuzzFooterParseGarbage feeds arbitrary file tails through the real read
// sequence — trailer probe, then full parse: no input may panic, and
// anything that parses cleanly must be a canonical footer (re-encoding the
// decoded entries reproduces the input bytes exactly) whose entries satisfy
// the invariants the seek path relies on.
func FuzzFooterParseGarbage(f *testing.F) {
	valid := AppendFooter(nil, []FooterEntry{{Offset: 0, FirstRecord: 0, Count: 3, MinKey: 1, MaxKey: 5}})
	f.Add(append(bytes.Repeat([]byte{0xAA}, 32), valid...))
	f.Add(valid[1:])                      // truncated head
	f.Add(bytes.Repeat([]byte{0xEC}, 80)) // magic-ish noise
	f.Add([]byte{0xEC, 0x5C, 0xF0, 0x0E}) // bare end magic
	crcFlipped := bytes.Clone(valid)
	crcFlipped[7] ^= 0x01
	f.Add(crcFlipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < FooterTrailerSize {
			return
		}
		flen, ok, _ := ParseFooterTrailer(data[len(data)-FooterTrailerSize:])
		if !ok || flen > len(data) {
			return
		}
		base := int64(len(data) - flen)
		footer, detail := ParseFooter(data[len(data)-flen:], base)
		if detail != "" {
			return
		}
		if len(footer.Entries) == 0 {
			t.Fatal("parsed footer indexes no frames")
		}
		var next, total int64
		prevOffset := int64(-1)
		for i, e := range footer.Entries {
			if e.Offset <= prevOffset || e.Offset >= base {
				t.Fatalf("entry %d offset %d escapes (%d, %d)", i, e.Offset, prevOffset, base)
			}
			if e.FirstRecord != next || e.Count == 0 || e.MinKey > e.MaxKey {
				t.Fatalf("entry %d breaks the chain: %+v", i, e)
			}
			prevOffset = e.Offset
			next += int64(e.Count)
			total += int64(e.Count)
		}
		if total != footer.TotalRecords {
			t.Fatalf("total %d but entries index %d records", footer.TotalRecords, total)
		}
		if reencoded := AppendFooter(nil, footer.Entries); !bytes.Equal(reencoded, data[len(data)-flen:]) {
			t.Fatal("accepted footer is not canonical: re-encoding its entries differs")
		}
	})
}

// FuzzParseFrameHeader feeds arbitrary bytes to the frame-header parser: it
// must reject garbage with an error and never panic, and any header it
// accepts must be bounded — known codec, payload within MaxFramePayload and
// no more records than payload bytes — so a magic-byte collision in a
// corrupt file can never drive a huge allocation downstream.
func FuzzParseFrameHeader(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0}, FrameHeaderSize))
	f.Add([]byte{0xEC, 0x5C, 0xC0, 0xDE, 2, 1, 1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0})
	huge := []byte{0xEC, 0x5C, 0xC0, 0xDE, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(huge[10:], 1<<30)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseFrameHeader(data)
		if err != nil {
			return
		}
		if h.Payload > MaxFramePayload {
			t.Fatalf("accepted payload length %d over MaxFramePayload %d", h.Payload, MaxFramePayload)
		}
		id := record.CodecID(h.Codec)
		if !record.KnownCodecID(id) {
			t.Fatalf("accepted unregistered codec id %d", h.Codec)
		}
		if sz := record.FixedSizeOfID(id); uint64(h.Count)*uint64(sz) > MaxFramePayload {
			t.Fatalf("accepted %d records of %d bytes, an unbounded decode", h.Count, sz)
		}
		if uint64(h.Count) > uint64(h.Payload) {
			t.Fatalf("accepted %d records in %d payload bytes", h.Count, h.Payload)
		}
	})
}
