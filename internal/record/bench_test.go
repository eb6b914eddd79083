package record

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// benchEdges builds a frame-sized batch with the mixed structure real edge
// files have: mostly-sorted sources with scattered targets, so the varint
// deltas see realistic input.
func benchEdges(n int) []Edge {
	recs := make([]Edge, n)
	for i := range recs {
		recs[i] = Edge{U: NodeID(i / 8), V: NodeID((i * 31) % n)}
	}
	return recs
}

// frameRoundTrip encodes recs into enc and decodes them back into dec,
// reusing both buffers; this is the per-frame hot path of every framed
// reader and writer.
func frameRoundTrip(c BlockCodec[Edge], recs []Edge, enc []byte, dec []Edge) ([]byte, []Edge, error) {
	enc = c.AppendBlock(enc[:0], recs)
	dec, err := c.DecodeBlock(enc, len(recs), dec[:0])
	return enc, dec, err
}

// webEdges builds n edges over contract-web's 20,000 node ids, sorted by
// source as E_out files are: consecutive sources with heavy-tailed (Pareto,
// α = 2, mean 12) out-degrees and uniformly random targets.
func webEdges(rng *rand.Rand, n int) []Edge {
	const ids = 20000
	recs := make([]Edge, 0, n)
	for u := rng.Intn(ids); len(recs) < n; u = (u + 1) % ids {
		deg := int(6 / math.Sqrt(1-rng.Float64()))
		for k := 0; k < deg && len(recs) < n; k++ {
			recs = append(recs, Edge{U: NodeID(u), V: NodeID(rng.Intn(ids))})
		}
	}
	slices.SortFunc(recs, func(a, b Edge) int { return cmp.Compare(EdgeBySource(a).Lo, EdgeBySource(b).Lo) })
	return recs
}

// webEdgeAugs builds n augmented edges sorted by target, as the contraction
// joins read them: webEdges reversed, so in-degrees are heavy-tailed, and
// small degree keys derived from each node id.
func webEdgeAugs(rng *rand.Rand, n int) []EdgeAug {
	key := func(n NodeID) NodeKey {
		in, out := uint64(n%13), uint64(n%29)
		return NodeKey{Deg: in + out, Prod: in * out}
	}
	recs := make([]EdgeAug, n)
	for i, e := range webEdges(rng, n) {
		recs[i] = EdgeAug{U: e.V, V: e.U, KeyU: key(e.V), KeyV: key(e.U)}
	}
	slices.SortFunc(recs, func(a, b EdgeAug) int { return cmp.Compare(EdgeAugByTarget(a).Lo, EdgeAugByTarget(b).Lo) })
	return recs
}

// frameRecords is the number of records a recio writer packs into one frame
// of a 64 KiB block: the block less the 18-byte frame header, divided by the
// codec's worst-case record size.
func frameRecords(maxRecordSize int) int { return (64<<10 - 18) / maxRecordSize }

// encodeSink keeps benchmarkCodecFrame's encoded payload live.
var encodeSink []byte

// benchmarkCodecFrame times AppendBlock and DecodeBlock separately on one
// frame of recs, each into a reused buffer.
func benchmarkCodecFrame[T comparable](b *testing.B, bc BlockCodec[T], recs []T) {
	rawBytes := int64(len(recs) * FixedSizeOfID(bc.ID()))
	payload := bc.AppendBlock(nil, recs)
	b.Run("encode", func(b *testing.B) {
		enc := make([]byte, 0, len(payload))
		b.ReportAllocs()
		b.SetBytes(rawBytes)
		for i := 0; i < b.N; i++ {
			enc = bc.AppendBlock(enc[:0], recs)
		}
		encodeSink = enc
	})
	b.Run("decode", func(b *testing.B) {
		dec := make([]T, 0, len(recs))
		var err error
		b.ReportAllocs()
		b.SetBytes(rawBytes)
		for i := 0; i < b.N; i++ {
			if dec, err = bc.DecodeBlock(payload, len(recs), dec[:0]); err != nil {
				b.Fatal(err)
			}
		}
		if !slices.Equal(dec, recs) {
			b.Fatal("decode corrupted records")
		}
	})
}

// BenchmarkFrameRoundTrip measures one encode+decode of a 4096-record Edge
// frame under varint and under fixed, then encode and decode alone on
// contract-web's two hot varint frames at B = 64 KiB: a full Edge frame
// sorted by source and a full EdgeAug frame sorted by target.  Run with
// -benchmem: the allocs/op column must read 0 at steady state — varint
// appends into the caller's reused encode and decode buffers.
func BenchmarkFrameRoundTrip(b *testing.B) {
	recs := benchEdges(4096)
	rawBytes := int64(len(recs) * EdgeCodec{}.Size())

	b.Run(FamilyVarint, func(b *testing.B) {
		c := VarintEdgeCodec{}
		enc := make([]byte, 0, len(recs)*c.MaxRecordSize())
		dec := make([]Edge, 0, len(recs))
		var err error
		b.ReportAllocs()
		b.SetBytes(rawBytes)
		for i := 0; i < b.N; i++ {
			if enc, dec, err = frameRoundTrip(c, recs, enc, dec); err != nil {
				b.Fatal(err)
			}
		}
		if len(dec) != len(recs) || dec[17] != recs[17] {
			b.Fatal("round trip corrupted records")
		}
	})

	// The fixed family is frameless; its hot path is the plain Encode/Decode
	// pair over a reused block buffer.
	b.Run(FamilyFixed, func(b *testing.B) {
		var c EdgeCodec
		buf := make([]byte, len(recs)*c.Size())
		b.ReportAllocs()
		b.SetBytes(rawBytes)
		for i := 0; i < b.N; i++ {
			for j, e := range recs {
				c.Encode(e, buf[j*c.Size():])
			}
			for j := range recs {
				if got := c.Decode(buf[j*c.Size():]); got != recs[j] {
					b.Fatal("round trip corrupted records")
				}
			}
		}
	})

	rng := rand.New(rand.NewSource(1))
	b.Run("web-Edge", func(b *testing.B) {
		bc := VarintEdgeCodec{}
		benchmarkCodecFrame[Edge](b, bc, webEdges(rng, frameRecords(bc.MaxRecordSize())))
	})
	b.Run("web-EdgeAug", func(b *testing.B) {
		bc := VarintEdgeAugCodec{}
		benchmarkCodecFrame[EdgeAug](b, bc, webEdgeAugs(rng, frameRecords(bc.MaxRecordSize())))
	})
}

// TestFrameRoundTripAllocs is the regression guard behind the benchmark: the
// steady-state varint frame round trip must not allocate, because it appends
// into the caller's encode and decode buffers.
func TestFrameRoundTripAllocs(t *testing.T) {
	recs := benchEdges(4096)
	c := VarintEdgeCodec{}
	enc := make([]byte, 0, len(recs)*c.MaxRecordSize())
	dec := make([]Edge, 0, len(recs))
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if enc, dec, err = frameRoundTrip(c, recs, enc, dec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("varint frame round trip allocates %.1f times per op, want 0", allocs)
	}
}
