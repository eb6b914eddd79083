package blockio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"extscc/internal/record"
)

// Self-describing block frame.  Record files written with a variable-length
// codec are a sequence of frames, each carrying its own codec identifier, so
// a reader needs no out-of-band configuration to decode a file — it sniffs
// the first bytes and dispatches on the codec ID.  Files of the fixed codec
// family carry no frames at all: they are the plain concatenation of
// fixed-size records.
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	0      4    magic 0xEC 0x5C 0xC0 0xDE ("ExtSCC code")
//	4      1    frame-format version (2)
//	5      1    codec id (record.CodecID)
//	6      4    record count
//	10     4    payload length in bytes
//	14     4    CRC-32C (Castagnoli) over bytes [0,14) and the payload
//	18     n    payload (codec-specific, see internal/record/doc.go)
//
// Version 2 is the only version written or read; any other version byte
// fails ParseFrameHeader.  The CRC covers the header fields and the payload,
// so a single flipped bit anywhere in a frame — count, length, codec id or
// data — fails verification instead of decoding into silently wrong records.
//
// Frames are charged to the I/O model like any other bytes: the blockio
// Writer/Reader beneath them still transfers whole blocks of cfg.BlockSize
// bytes, so a file that compresses to fewer blocks genuinely costs fewer
// accounted I/Os.
//
// Detection caveat: a frameless fixed-codec file whose first record happens
// to begin with the four magic bytes (a node id of 0xDEC05CEC ≈ 3.74 billion)
// is sniffed as framed only if its first 18 bytes also parse as a whole
// header: version 2, a registered codec id and a sane count/length pair.  A
// fixed file shorter than a header, or whose head fails any of those checks,
// is read as fixed.  One case remains: a fixed file whose first 18 bytes do
// parse as a header.  It is never decoded: reading it fails with a typed
// ErrCorrupt on the CRC (or earlier, when the claimed payload runs past the
// end of the file), or with a codec error when the codec id names another
// record type.  The pipeline's own files never hit this — framed
// intermediates are always written with a codec the reader then validates.
const (
	// FrameVersion is the frame-format version every frame is written with
	// and the only one ParseFrameHeader accepts.
	FrameVersion = 2
	// FrameHeaderSize is the encoded size of a frame header in bytes.
	FrameHeaderSize = 18
	// crcOffset is where the CRC field lives; the CRC input is the header up
	// to this offset plus the payload.
	crcOffset = 14
	// MaxFramePayload caps the payload length ParseFrameHeader accepts.  Real
	// frames never exceed one block (the writer caps records per frame), so
	// the bound is far above any configured block size while keeping a
	// garbage length from a magic-byte collision — up to 4 GiB in a uint32 —
	// from driving a huge allocation.
	MaxFramePayload = 64 << 20
)

// frameMagic are the four leading bytes of every frame.
var frameMagic = [4]byte{0xEC, 0x5C, 0xC0, 0xDE}

// castagnoli is the CRC-32C table (the polynomial with hardware support on
// both amd64 and arm64, and the one storage formats conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel every detected-corruption error matches with
// errors.Is: CRC mismatches, malformed frame headers mid-file, truncated or
// undecodable payloads.  It separates "the bytes are wrong" from transient
// I/O failures — a corrupt frame reads the same on every retry.
var ErrCorrupt = errors.New("corrupt data")

// CorruptError reports detected corruption, naming the file, the index of
// the corrupt frame within it, and the byte offset the frame starts at.  It
// matches ErrCorrupt with errors.Is.
type CorruptError struct {
	// Path is the corrupt file.
	Path string
	// Frame is the 0-based index of the corrupt frame within the file (-1
	// when the failure is not attributable to one frame).
	Frame int64
	// Offset is the byte offset at which the corrupt frame's header starts.
	Offset int64
	// Detail says what failed (CRC mismatch, bad header, short payload...).
	Detail string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("%s: corrupt frame %d at byte %d: %s", e.Path, e.Frame, e.Offset, e.Detail)
}

// Unwrap makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// FrameHeader describes one frame of a framed record file.
type FrameHeader struct {
	// Codec is the record.CodecID of the payload encoding.
	Codec byte
	// Count is the number of records in the frame.
	Count uint32
	// Payload is the payload length in bytes.
	Payload uint32
	// CRC is the CRC-32C over the header prefix and the payload.
	CRC uint32
}

// FrameCRC computes the frame's integrity checksum: CRC-32C over the first
// crcOffset bytes of the encoded header followed by the payload.
func FrameCRC(header, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, header[:crcOffset])
	return crc32.Update(crc, castagnoli, payload)
}

// PutFrameHeader encodes a header for payload into dst, which must have
// FrameHeaderSize bytes, computing the CRC over the header fields and the
// payload bytes.
func PutFrameHeader(dst []byte, h FrameHeader, payload []byte) {
	copy(dst[0:4], frameMagic[:])
	dst[4] = FrameVersion
	dst[5] = h.Codec
	binary.LittleEndian.PutUint32(dst[6:10], h.Count)
	binary.LittleEndian.PutUint32(dst[10:14], h.Payload)
	binary.LittleEndian.PutUint32(dst[14:18], FrameCRC(dst, payload))
}

// HasFrameMagic reports whether prefix (at least 4 bytes) starts with the
// frame magic, i.e. whether the file is framed rather than a raw fixed-codec
// record file.
func HasFrameMagic(prefix []byte) bool {
	return len(prefix) >= 4 && [4]byte(prefix[0:4]) == frameMagic
}

// ParseFrameHeader decodes and validates a frame header.  src must hold
// FrameHeaderSize bytes.  Beyond magic and version, the codec id must be
// registered and the count/length pair sane — a payload within
// MaxFramePayload and no more records than payload bytes — so garbage
// following a magic-byte collision fails here, fast, instead of driving a
// huge allocation downstream.
func ParseFrameHeader(src []byte) (FrameHeader, error) {
	if len(src) < FrameHeaderSize {
		return FrameHeader{}, fmt.Errorf("blockio: frame header needs %d bytes, have %d", FrameHeaderSize, len(src))
	}
	if !HasFrameMagic(src) {
		return FrameHeader{}, fmt.Errorf("blockio: bad frame magic % x", src[0:4])
	}
	if src[4] != FrameVersion {
		return FrameHeader{}, fmt.Errorf("blockio: unsupported frame version %d (this build reads version %d)", src[4], FrameVersion)
	}
	h := FrameHeader{
		Codec:   src[5],
		Count:   binary.LittleEndian.Uint32(src[6:10]),
		Payload: binary.LittleEndian.Uint32(src[10:14]),
		CRC:     binary.LittleEndian.Uint32(src[14:18]),
	}
	if !record.KnownCodecID(record.CodecID(h.Codec)) {
		return FrameHeader{}, fmt.Errorf("blockio: frame names unregistered codec id %d", h.Codec)
	}
	if h.Payload > MaxFramePayload {
		return FrameHeader{}, fmt.Errorf("blockio: frame payload length %d exceeds the %d-byte frame cap", h.Payload, MaxFramePayload)
	}
	// Varint spends at least one byte per record, so more records than
	// payload bytes is garbage.  LZ frames can legitimately pack many records
	// per payload byte, so for those the decoded size is bounded instead —
	// either way a fabricated count cannot drive a huge allocation.
	if record.FamilyOfID(record.CodecID(h.Codec)) != record.FamilyCompress && uint64(h.Count) > uint64(h.Payload) {
		return FrameHeader{}, fmt.Errorf("blockio: frame claims %d records in %d payload bytes", h.Count, h.Payload)
	}
	if sz := record.FixedSizeOfID(record.CodecID(h.Codec)); sz > 0 && uint64(h.Count)*uint64(sz) > MaxFramePayload {
		return FrameHeader{}, fmt.Errorf("blockio: frame claims %d records of %d bytes, beyond the %d-byte frame cap", h.Count, sz, MaxFramePayload)
	}
	return h, nil
}

// VerifyFrame checks a frame's CRC against its header and payload bytes
// (header holds the encoded header, payload the exact payload).  It returns
// the mismatch detail for CorruptError, or "" when the frame is intact.
func VerifyFrame(h FrameHeader, header, payload []byte) string {
	if got := FrameCRC(header, payload); got != h.CRC {
		return fmt.Sprintf("CRC-32C mismatch: stored %08x, computed %08x", h.CRC, got)
	}
	return ""
}
