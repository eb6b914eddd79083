package blockio

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"extscc/internal/record"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	payload := []byte("twelve bytes")
	h := FrameHeader{Codec: uint8(record.CodecVarintEdgeAug), Count: 7, Payload: uint32(len(payload))}
	buf := make([]byte, FrameHeaderSize)
	PutFrameHeader(buf, h, payload)
	if !HasFrameMagic(buf) {
		t.Fatal("encoded header does not carry the frame magic")
	}
	got, err := ParseFrameHeader(buf)
	if err != nil {
		t.Fatalf("ParseFrameHeader: %v", err)
	}
	want := h
	want.CRC = FrameCRC(buf, payload)
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if detail := VerifyFrame(got, buf, payload); detail != "" {
		t.Fatalf("VerifyFrame on intact frame: %s", detail)
	}
}

func TestVerifyFrameDetectsAnyFlippedBit(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	h := FrameHeader{Codec: 1, Count: 5, Payload: 5}
	buf := make([]byte, FrameHeaderSize)
	PutFrameHeader(buf, h, payload)
	parsed, err := ParseFrameHeader(buf)
	if err != nil {
		t.Fatalf("ParseFrameHeader: %v", err)
	}
	for i := range payload {
		for bit := 0; bit < 8; bit++ {
			corrupted := append([]byte(nil), payload...)
			corrupted[i] ^= 1 << bit
			if detail := VerifyFrame(parsed, buf, corrupted); detail == "" {
				t.Fatalf("flipping payload byte %d bit %d went undetected", i, bit)
			}
		}
	}
	// Header corruption in the CRC-covered prefix is detected too.
	for i := 0; i < crcOffset; i++ {
		corrupted := append([]byte(nil), buf...)
		corrupted[i] ^= 1
		ph, err := ParseFrameHeader(corrupted)
		if err != nil {
			continue // rejected before verification: also a detection
		}
		if detail := VerifyFrame(ph, corrupted, payload); detail == "" {
			t.Fatalf("flipping header byte %d went undetected", i)
		}
	}
}

func TestParseFrameHeaderRejects(t *testing.T) {
	payload := []byte{42}
	buf := make([]byte, FrameHeaderSize)
	PutFrameHeader(buf, FrameHeader{Codec: 1, Count: 1, Payload: 1}, payload)

	if _, err := ParseFrameHeader(buf[:FrameHeaderSize-1]); err == nil {
		t.Fatal("short header parsed without error")
	}

	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := ParseFrameHeader(bad); err == nil {
		t.Fatal("bad magic parsed without error")
	}
	if HasFrameMagic(bad) {
		t.Fatal("HasFrameMagic accepted a corrupted magic")
	}

	// Version 1 (the CRC-less header) is rejected like a future version.
	for _, v := range []byte{1, FrameVersion + 1} {
		other := append([]byte(nil), buf...)
		other[4] = v
		if _, err := ParseFrameHeader(other); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: got %v, want a version error", v, err)
		}
	}

	// Adversarial headers: an unregistered codec id and insane lengths must
	// be rejected before any allocation happens downstream.  Id 4 is the
	// retired 40-byte EdgeAug layout's and ids 7–12 the retired compress
	// family's: reserved, so they fail like any other unregistered id.
	for _, id := range []byte{0xEE, 4, 7, 8, 9, 10, 11, 12} {
		unregistered := append([]byte(nil), buf...)
		unregistered[5] = id
		binary.LittleEndian.PutUint32(unregistered[14:18], FrameCRC(unregistered, payload))
		if _, err := ParseFrameHeader(unregistered); err == nil || !strings.Contains(err.Error(), "codec") {
			t.Fatalf("unregistered codec id %d: got %v, want a codec error", id, err)
		}
	}

	huge := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(huge[10:14], MaxFramePayload+1)
	binary.LittleEndian.PutUint32(huge[14:18], FrameCRC(huge, payload))
	if _, err := ParseFrameHeader(huge); err == nil || !strings.Contains(err.Error(), "payload length") {
		t.Fatalf("oversized payload length: got %v, want a length error", err)
	}

	overCount := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(overCount[6:10], 2) // 2 records in 1 payload byte
	binary.LittleEndian.PutUint32(overCount[14:18], FrameCRC(overCount, payload))
	if _, err := ParseFrameHeader(overCount); err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("count > payload: got %v, want a count error", err)
	}
}

func TestCorruptErrorMatchesSentinel(t *testing.T) {
	err := error(&CorruptError{Path: "x.bin", Frame: 3, Offset: 1234, Detail: "CRC-32C mismatch"})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("CorruptError does not match ErrCorrupt")
	}
	for _, want := range []string{"x.bin", "frame 3", "byte 1234", "CRC-32C"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q lacks %q", err, want)
		}
	}
}

// TestFixedFilesLackMagic pins that ordinary fixed-codec record data (small
// little-endian node ids) never matches the frame magic, which is what makes
// the reader's layout sniffing safe for the pipeline's own files.
func TestFixedFilesLackMagic(t *testing.T) {
	if HasFrameMagic([]byte{0, 0, 0, 0}) || HasFrameMagic([]byte{0xFF, 0xFF, 0xFF, 0x7F}) {
		t.Fatal("plain record bytes misdetected as a frame")
	}
}
