// Package record defines the binary record types that flow through the
// external operators of this repository (edges, node lists, degree tables and
// SCC label files), the total orders the paper's algorithms sort them by, and
// the codecs that lay them out on disk.
//
// Three codec families are registered:
//
//   - "fixed": the historical fixed-size little-endian layout.  A fixed file
//     is the plain concatenation of its records with no framing, so it is
//     byte-identical to the files this repository wrote before codecs became
//     pluggable, and it supports O(1) record seeks (record i lives at byte
//     i*Size()).
//   - "varint": a variable-length block layout that exploits the sortedness
//     of the pipeline's intermediate files.  Records are grouped into frames
//     (see package blockio for the frame header); within one frame every
//     node-id field is delta-encoded against the same field of the previous
//     record, zigzag-mapped, and written as an unsigned LEB128 varint, while
//     degree/key fields are written as plain uvarints.  Sorted runs collapse
//     to one or two bytes per field; the encoding remains correct (just less
//     compact) for unsorted files because zigzag deltas cover negative gaps.
//   - "compress": a per-frame LZ77-style match/literal compressor applied
//     over the fixed layout.  Where varint needs small deltas between
//     consecutive records, compress exploits byte-level repetition — shared
//     high bytes of node ids, zero padding, repeated records — and therefore
//     still wins on unsorted files where varint degenerates.
//
// # Fixed layouts (family "fixed")
//
// All integers are little-endian, all sizes in bytes:
//
//	Edge       (8):  U uint32 | V uint32
//	NodeID     (4):  Node uint32
//	NodeDegree (12): Node uint32 | DegIn uint32 | DegOut uint32
//	EdgeAug    (40): U uint32 | V uint32 | KeyU.Deg uint64 | KeyU.Prod uint64
//	                 | KeyV.Deg uint64 | KeyV.Prod uint64
//	Label      (8):  Node uint32 | SCC uint32
//	EdgeSCC    (12): U uint32 | V uint32 | SCC uint32
//
// # Varint layouts (family "varint")
//
// Every varint codec encodes one frame's worth of records at a time; the
// per-field delta state starts at zero at the beginning of each frame, so
// frames decode independently.  Notation: zz(cur-prev) is the zigzag-encoded
// signed difference written as a uvarint (at most 5 bytes for a uint32
// field), uv(x) a plain uvarint (at most 5 bytes for uint32, 10 for uint64).
//
//	CodecVarintEdge       (1): zz(U-prevU) zz(V-prevV)
//	CodecVarintNode       (2): zz(Node-prevNode)
//	CodecVarintNodeDegree (3): zz(Node-prevNode) uv(DegIn) uv(DegOut)
//	CodecVarintEdgeAug    (4): zz(U-prevU) zz(V-prevV)
//	                           uv(KeyU.Deg) uv(KeyU.Prod)
//	                           uv(KeyV.Deg) uv(KeyV.Prod)
//	CodecVarintLabel      (5): zz(Node-prevNode) zz(SCC-prevSCC)
//	CodecVarintEdgeSCC    (6): zz(U-prevU) zz(V-prevV) zz(SCC-prevSCC)
//
// Fields are encoding/binary uvarints, decoded under this contract: a field
// is at most 10 bytes (the tenth 0 or 1); every field reads as a full 64-bit
// uvarint, so uint32 deltas wrap modulo 2^32 and NodeDegree degrees truncate
// to uint32; the records consume the payload exactly.  Package recio reports
// any violation as blockio.ErrCorrupt.
//
// # Compress layouts (family "compress")
//
// One compress codec exists per record type, sharing a single payload format
// parameterised only by the record's fixed size:
//
//	CodecCompressEdge       (7)
//	CodecCompressNode       (8)
//	CodecCompressNodeDegree (9)
//	CodecCompressEdgeAug    (10)
//	CodecCompressLabel      (11)
//	CodecCompressEdgeSCC    (12)
//
// A compress frame payload is one mode byte followed by data:
//
//	payload := mode byte | data
//	mode 0 (raw): data is the frame's records in the fixed layout, verbatim.
//	mode 1 (LZ):  data is an LZ77 token stream that decompresses to the
//	              fixed layout.
//
// The encoder always tries LZ and falls back to raw when LZ is not strictly
// smaller, so a compress frame never costs more than one byte over fixed.
// Any other mode byte is a corruption error.
//
// The LZ stream is a sequence of groups, each:
//
//	token    (1): litLen<<4 | matchLen', where matchLen' = matchLen-4,
//	              both nibbles capped at 15
//	litExt  (0+): if the litLen nibble is 15, extension bytes follow — each
//	              255 adds 255, the first byte under 255 terminates and adds
//	              its value (total literal length = 15 + extensions)
//	literals(L):  L literal bytes, copied verbatim
//	offset   (2): little-endian uint16 storing offset-1; the match copies
//	              from `out position - offset`, which may overlap the bytes
//	              being written (run-length behaviour)
//	matchExt(0+): same 255-run extension scheme when the match nibble is 15
//	              (total match length = 4 + 15 + extensions)
//
// The minimum match length is 4 (a match costs at least 3 bytes: token +
// offset) and the maximum offset is 65536.  The final group of every stream
// is literals-only: its match nibble is 0 and it carries no offset, so the
// decoder finishes exactly when the payload is exhausted.  Matches never
// reach back past the start of the frame — frames decode independently, as
// in the varint family.  A decoded frame whose size is not count *
// Size(record) is a corruption error.
//
// The parenthesised numbers above are the CodecID stored in the frame
// header, which is how a reader recognises the record type and layout
// without out-of-band configuration.  CodecID 0 is reserved for the fixed
// family and never appears in a frame.  A decoder must consume exactly the
// frame's payload while producing exactly the frame's record count; anything
// else is a corruption error.
//
// # Frame format version 2 (integrity)
//
// Every frame header is version 2: the common fields are followed by a
// CRC-32C (Castagnoli) checksum of the first 14 header bytes plus the
// payload (18 bytes total; see blockio.PutFrameHeader / blockio.VerifyFrame).
// Readers accept no other version, verify the checksum on every frame they
// decode and fail with blockio.ErrCorrupt — naming the file, frame index and
// byte offset — on any mismatch.  Fixed-family files remain frameless and
// carry no checksum.
//
// # Frame-index footers (seekable framed files)
//
// Framed files (varint and compress families) end with a self-describing
// footer indexing every frame — byte offset, first record index, record
// count and min/max key per frame, CRC-protected — which makes them
// seekable: record seeks become a binary search over the index and key
// probes use the per-frame key ranges.  A framed file without its footer is
// corrupt.  The byte-level footer layout and parsing rules live in package
// blockio (footer.go).
//
// # Pooling and the accounting guarantee
//
// The encode/decode hot paths stage their scratch space through the
// size-classed buffer pool (package pool).  Pooled buffers are scratch
// memory: they never change a single on-disk byte or any accounted I/O
// counter.
//
// Future codecs extend the table above with a fresh CodecID; IDs are
// append-only and never reused, so old files stay decodable.
package record
