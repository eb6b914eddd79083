package extscc_test

import (
	"context"
	"slices"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
)

// codecRun executes one algorithm under one codec family and returns the
// labelling plus the run's Stats.
func codecRun(t *testing.T, algo, codec string, edges []extscc.Edge) (map[extscc.NodeID]uint32, extscc.Stats, int64) {
	t.Helper()
	eng, err := extscc.New(
		extscc.WithAlgorithm(algo),
		extscc.WithCodec(codec),
		extscc.WithMemory(256*1024),
		extscc.WithBlockSize(4096),
		extscc.WithNodeBudget(150),
		extscc.WithMaxIOs(0),
		extscc.WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(edges))
	if err != nil {
		t.Fatalf("%s/%s: %v", algo, codec, err)
	}
	defer res.Close()
	if res.Stats.Codec != codec {
		t.Fatalf("%s: Stats.Codec = %q, want %q", algo, res.Stats.Codec, codec)
	}
	m, err := res.LabelMap()
	if err != nil {
		t.Fatal(err)
	}
	return m, res.Stats, res.NumSCCs
}

// sameSCCPartition checks the two labellings induce the same partition (SCC
// identifiers are opaque, so compare equivalence classes, not raw labels).
func sameSCCPartition(t *testing.T, a, b map[extscc.NodeID]uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("labellings cover %d vs %d nodes", len(a), len(b))
	}
	aToB := map[uint32]uint32{}
	bToA := map[uint32]uint32{}
	for n, la := range a {
		lb, ok := b[n]
		if !ok {
			t.Fatalf("node %d missing from second labelling", n)
		}
		if mapped, seen := aToB[la]; seen && mapped != lb {
			t.Fatalf("label %d maps to both %d and %d", la, mapped, lb)
		}
		if mapped, seen := bToA[lb]; seen && mapped != la {
			t.Fatalf("label %d maps back to both %d and %d", lb, mapped, la)
		}
		aToB[la] = lb
		bToA[lb] = la
	}
}

// TestCrossCodecEquivalence is the engine-level invariant of the codec
// layer: every registered algorithm — dfs-scc included, which no longer pins
// its own files to the fixed layout now that framed files seek through their
// frame-index footer — produces the identical SCC partition under every codec
// family, while varint strictly reduces the bytes written.
func TestCrossCodecEquivalence(t *testing.T) {
	// A workload with non-trivial SCC structure, big enough that edge files
	// span many 4 KiB blocks and the contraction loop actually iterates.
	edges := graphgen.Random(600, 2400, 42)

	for _, algo := range extscc.Algorithms() {
		name := algo.Name()
		fixedLabels, fixedStats, fixedSCCs := codecRun(t, name, extscc.CodecFixed, edges)
		codec := extscc.CodecVarint
		labels, stats, sccs := codecRun(t, name, codec, edges)

		if fixedSCCs != sccs {
			t.Fatalf("%s: NumSCCs %d (fixed) vs %d (%s)", name, fixedSCCs, sccs, codec)
		}
		sameSCCPartition(t, fixedLabels, labels)

		if stats.BytesWritten >= fixedStats.BytesWritten {
			t.Errorf("%s: %s wrote %d bytes, fixed %d; compression must reduce bytes",
				name, codec, stats.BytesWritten, fixedStats.BytesWritten)
		}
		// Block-I/O reduction is pinned for the scan/sort algorithms only:
		// dfs-scc is dominated by random frame probes, where a compressed
		// frame can straddle as many blocks as the fixed window it replaces.
		if name != "dfs-scc" && stats.TotalIOs >= fixedStats.TotalIOs {
			t.Errorf("%s: %s charged %d block I/Os, fixed %d; compression must reduce I/Os",
				name, codec, stats.TotalIOs, fixedStats.TotalIOs)
		}
		if stats.CompressionRatio <= 1.1 {
			t.Errorf("%s: varint compression ratio %.2f, want > 1.1", name, stats.CompressionRatio)
		}
		if fixedStats.CompressionRatio < 0.99 || fixedStats.CompressionRatio > 1.01 {
			t.Errorf("%s: fixed compression ratio %.3f, want ~1.0", name, fixedStats.CompressionRatio)
		}
	}
}

// TestWithCodecValidation rejects unknown codec families at both layers,
// the retired "compress" family included.
func TestWithCodecValidation(t *testing.T) {
	for _, name := range []string{"zstd", "compress"} {
		if _, err := extscc.New(extscc.WithCodec(name)); err == nil {
			t.Fatalf("WithCodec accepted the unknown family %q", name)
		}
	}
	if _, err := extscc.New(extscc.WithCodec("")); err != nil {
		t.Fatalf("WithCodec(\"\") must select the default: %v", err)
	}
	if got := extscc.Codecs(); !slices.Equal(got, []string{extscc.CodecFixed, extscc.CodecVarint}) {
		t.Fatalf("Codecs() = %v, want [fixed varint]", got)
	}
}
