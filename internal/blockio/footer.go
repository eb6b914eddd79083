package blockio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Frame-index footer.  Every framed record file ends with a self-describing
// footer indexing every frame, which makes the file seekable: record-indexed
// seeks become a binary search over the entries (O(log F)), key probes use
// the per-frame min/max keys, and the record count is read instead of
// scanned.  Fixed-layout files never carry one (they are frameless and
// seekable by offset arithmetic already).
//
// Version-1 footer layout (all integers little-endian):
//
//	offset        size field
//	0             4    footer magic 0xEC 0x5C 0xF0 0x07
//	4             1    footer-format version (1)
//	5             36×F frame entries, F in the trailer:
//	                     +0   8  byte offset of the frame header in the file
//	                     +8   8  index of the frame's first record
//	                     +16  4  record count of the frame
//	                     +20  8  minimum record key in the frame (record.KeyOf)
//	                     +28  8  maximum record key in the frame
//	5+36F         8    total record count
//	13+36F        4    frame count F
//	17+36F        4    CRC-32C (Castagnoli) over bytes [0, 17+36F)
//	21+36F        4    footer length 29+36F (distance from footer start to EOF)
//	25+36F        4    end magic 0xEC 0x5C 0xF0 0x0E
//
// A reader probes the last 24 bytes: no end magic means no footer, which
// ReadFooter reports as such (package recio treats a framed file without one
// as corrupt); end magic with anything else malformed — bad length, bad start
// magic, CRC mismatch, inconsistent entries — is typed corruption
// (ErrCorrupt), because acting on a damaged index would mis-seek into wrong
// records.  The version byte lets a later layout be told apart.
//
// The streaming reader needs no footer to skip one: a footer indexes at least
// one frame (empty files are written with no bytes at all), so it is at least
// 65 bytes long and the reader's next header read succeeds and sees the
// footer magic where a frame magic would be, which is the end-of-records
// signal.
const (
	// FooterVersion1 is the first footer format.
	FooterVersion1 = 1
	// FooterVersion is the version new footers are written with.
	FooterVersion = FooterVersion1
	// FooterEntrySize is the encoded size of one frame entry.
	FooterEntrySize = 36
	// FooterTrailerSize is the encoded size of the fixed trailer; a reader
	// reads this many bytes off the end of a file to detect a footer.
	FooterTrailerSize = 24
	// footerHeadSize is the magic + version prefix.
	footerHeadSize = 5
)

// footerMagic opens every footer; it shares the 0xEC 0x5C prefix of the frame
// magic but can never be parsed as one.
var footerMagic = [4]byte{0xEC, 0x5C, 0xF0, 0x07}

// footerEndMagic closes every footer; its presence in the last 4 bytes of a
// file is the footer detector.
var footerEndMagic = [4]byte{0xEC, 0x5C, 0xF0, 0x0E}

// FooterEntry indexes one frame.
type FooterEntry struct {
	// Offset is the byte offset of the frame header in the file.
	Offset int64
	// FirstRecord is the index of the frame's first record.
	FirstRecord int64
	// Count is the number of records in the frame.
	Count uint32
	// MinKey and MaxKey bound record.KeyOf over the frame's records.
	MinKey, MaxKey uint64
}

// Footer is the decoded frame index of one file.
type Footer struct {
	// Entries holds one entry per frame, in file order.
	Entries []FooterEntry
	// TotalRecords is the record count of the whole file.
	TotalRecords int64
}

// HasFooterMagic reports whether prefix (at least 4 bytes) starts with the
// footer magic — the signal that the streaming reader has hit the footer and
// the frames are over.
func HasFooterMagic(prefix []byte) bool {
	return len(prefix) >= 4 && [4]byte(prefix[0:4]) == footerMagic
}

// FooterSize returns the encoded size of a footer indexing frames frames.
func FooterSize(frames int) int {
	return footerHeadSize + frames*FooterEntrySize + FooterTrailerSize
}

// AppendFooter appends the encoded footer to dst.  Entries must be non-empty
// and in file order; the writer only calls it after flushing at least one
// frame.
func AppendFooter(dst []byte, entries []FooterEntry) []byte {
	start := len(dst)
	dst = append(dst, footerMagic[:]...)
	dst = append(dst, FooterVersion)
	var total int64
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Offset))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.FirstRecord))
		dst = binary.LittleEndian.AppendUint32(dst, e.Count)
		dst = binary.LittleEndian.AppendUint64(dst, e.MinKey)
		dst = binary.LittleEndian.AppendUint64(dst, e.MaxKey)
		total += int64(e.Count)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(total))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	crc := crc32.Update(0, castagnoli, dst[start:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(FooterSize(len(entries))))
	return append(dst, footerEndMagic[:]...)
}

// ParseFooterTrailer inspects the last FooterTrailerSize bytes of a file and
// reports whether a footer is present and, if so, its full encoded length.
// A missing end magic is not an error here — it is how every frameless fixed
// file looks.  An end magic with a length that cannot hold a version-1
// footer is corruption.
func ParseFooterTrailer(tail []byte) (footerLen int, ok bool, detail string) {
	if len(tail) != FooterTrailerSize {
		return 0, false, ""
	}
	if [4]byte(tail[FooterTrailerSize-4:]) != footerEndMagic {
		return 0, false, ""
	}
	n := int(binary.LittleEndian.Uint32(tail[FooterTrailerSize-8 : FooterTrailerSize-4]))
	if n < FooterSize(1) || (n-footerHeadSize-FooterTrailerSize)%FooterEntrySize != 0 {
		return 0, false, fmt.Sprintf("footer end magic present but length %d cannot hold a version-%d footer", n, FooterVersion)
	}
	return n, true, ""
}

// ParseFooter decodes and validates a complete encoded footer (the buf read
// back from the last footerLen bytes of the file, as sized by
// ParseFooterTrailer).  Any malformed shape returns a detail string for
// CorruptError — a damaged index must fail typed, never mis-seek.  base is
// the byte offset of the footer in the file, used to validate that every
// frame the footer names lies before it.
func ParseFooter(buf []byte, base int64) (Footer, string) {
	if len(buf) < FooterSize(1) {
		return Footer{}, fmt.Sprintf("footer is %d bytes, shorter than any version-%d footer", len(buf), FooterVersion)
	}
	if [4]byte(buf[0:4]) != footerMagic {
		return Footer{}, fmt.Sprintf("bad footer magic % x", buf[0:4])
	}
	if buf[4] != FooterVersion1 {
		return Footer{}, fmt.Sprintf("unsupported footer version %d (this build reads version %d)", buf[4], FooterVersion1)
	}
	frames := int(binary.LittleEndian.Uint32(buf[len(buf)-16 : len(buf)-12]))
	if FooterSize(frames) != len(buf) {
		return Footer{}, fmt.Sprintf("footer length %d does not match its %d frame entries", len(buf), frames)
	}
	stored := binary.LittleEndian.Uint32(buf[len(buf)-12 : len(buf)-8])
	if got := crc32.Update(0, castagnoli, buf[:len(buf)-12]); got != stored {
		return Footer{}, fmt.Sprintf("footer CRC-32C mismatch: stored %08x, computed %08x", stored, got)
	}
	f := Footer{
		Entries:      make([]FooterEntry, frames),
		TotalRecords: int64(binary.LittleEndian.Uint64(buf[len(buf)-FooterTrailerSize : len(buf)-16])),
	}
	var nextRecord, total int64
	prevOffset := int64(-1)
	for i := range f.Entries {
		off := footerHeadSize + i*FooterEntrySize
		e := FooterEntry{
			Offset:      int64(binary.LittleEndian.Uint64(buf[off : off+8])),
			FirstRecord: int64(binary.LittleEndian.Uint64(buf[off+8 : off+16])),
			Count:       binary.LittleEndian.Uint32(buf[off+16 : off+20]),
			MinKey:      binary.LittleEndian.Uint64(buf[off+20 : off+28]),
			MaxKey:      binary.LittleEndian.Uint64(buf[off+28 : off+36]),
		}
		if e.Offset <= prevOffset || e.Offset >= base {
			return Footer{}, fmt.Sprintf("footer entry %d has frame offset %d outside (%d, %d)", i, e.Offset, prevOffset, base)
		}
		if e.FirstRecord != nextRecord || e.Count == 0 {
			return Footer{}, fmt.Sprintf("footer entry %d breaks the record chain (first %d count %d, want first %d)", i, e.FirstRecord, e.Count, nextRecord)
		}
		if e.MinKey > e.MaxKey {
			return Footer{}, fmt.Sprintf("footer entry %d has min key %d above max key %d", i, e.MinKey, e.MaxKey)
		}
		prevOffset = e.Offset
		nextRecord += int64(e.Count)
		total += int64(e.Count)
		f.Entries[i] = e
	}
	if total != f.TotalRecords {
		return Footer{}, fmt.Sprintf("footer total %d does not match the %d records its entries index", f.TotalRecords, total)
	}
	return f, ""
}

// ReadFooter probes r for a footer: two random reads (trailer, then the full
// footer) through the accounted block layer.  It returns (footer, true, nil)
// when a valid footer is present, (zero, false, nil) for footerless files,
// and a typed CorruptError when a footer is present but damaged.  The
// reader's position is left at the end of the file; callers seek before
// further streaming.
func ReadFooter(r *Reader) (Footer, bool, error) {
	size := r.Size()
	if size < FooterTrailerSize {
		return Footer{}, false, nil
	}
	corrupt := func(off int64, detail string) error {
		return &CorruptError{Path: r.Name(), Frame: -1, Offset: off, Detail: detail}
	}
	tail := make([]byte, FooterTrailerSize)
	if err := r.SeekTo(size - FooterTrailerSize); err != nil {
		return Footer{}, false, err
	}
	if err := r.ReadFull(tail); err != nil {
		return Footer{}, false, err
	}
	footerLen, ok, detail := ParseFooterTrailer(tail)
	if detail != "" {
		return Footer{}, false, corrupt(size-FooterTrailerSize, detail)
	}
	if !ok {
		return Footer{}, false, nil
	}
	if int64(footerLen) > size {
		return Footer{}, false, corrupt(size-FooterTrailerSize, fmt.Sprintf("footer length %d exceeds the %d-byte file", footerLen, size))
	}
	base := size - int64(footerLen)
	buf := make([]byte, footerLen)
	if err := r.SeekTo(base); err != nil {
		return Footer{}, false, err
	}
	if err := r.ReadFull(buf); err != nil {
		return Footer{}, false, err
	}
	f, detail := ParseFooter(buf, base)
	if detail != "" {
		return Footer{}, false, corrupt(base, detail)
	}
	return f, true, nil
}

// FrameForRecord returns the index of the entry holding record idx, or
// (len(Entries), false) when idx is at or past the end of the file.
func (f *Footer) FrameForRecord(idx int64) (int, bool) {
	if idx < 0 || idx >= f.TotalRecords {
		return len(f.Entries), false
	}
	lo, hi := 0, len(f.Entries)
	for lo < hi { // first entry whose record range ends past idx
		mid := (lo + hi) / 2
		if f.Entries[mid].FirstRecord+int64(f.Entries[mid].Count) > idx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, lo < len(f.Entries)
}

// FrameForKey returns the index of the first entry whose MaxKey is at least
// key — on a key-sorted file, the frame holding the first record with
// KeyOf >= key — or (len(Entries), false) when every key in the file is
// smaller.
func (f *Footer) FrameForKey(key uint64) (int, bool) {
	lo, hi := 0, len(f.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.Entries[mid].MaxKey >= key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, lo < len(f.Entries)
}
