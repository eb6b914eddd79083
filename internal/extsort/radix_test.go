package extsort

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"extscc/internal/iomodel"
	"extscc/internal/record"
)

// triple holds an order's three fields from most to least significant; the
// test inputs are generated as triples and mapped to records.
type triple [3]uint32

func compareTriples(a, b triple) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]), cmp.Compare(a[2], b[2]))
}

// radixInputs returns the input kinds of the radix sort tests, n triples
// each.
func radixInputs(n int, rng *rand.Rand) map[string][]triple {
	gen := func(f func(i int) triple) []triple {
		ts := make([]triple, n)
		for i := range ts {
			ts[i] = f(i)
		}
		return ts
	}
	small := func(int) triple {
		return triple{uint32(rng.Intn(1 << 16)), uint32(rng.Intn(1 << 16)), uint32(rng.Intn(1 << 16))}
	}
	sorted := gen(small)
	slices.SortFunc(sorted, compareTriples)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	return map[string][]triple{
		"random":    gen(func(int) triple { return triple{rng.Uint32(), rng.Uint32(), rng.Uint32()} }),
		"all-equal": gen(func(int) triple { return triple{7, 7, 7} }),
		"duplicate-heavy": gen(func(int) triple {
			return triple{uint32(rng.Intn(4)), uint32(rng.Intn(4)), uint32(rng.Intn(4))}
		}),
		"sorted":          sorted,
		"reverse-sorted":  reversed,
		"leading-varying": gen(func(int) triple { return triple{rng.Uint32(), 3, 5} }),
		"top-bit-ids": gen(func(int) triple {
			top := func() uint32 { return math.MaxUint32 - uint32(rng.Intn(300)) }
			return triple{top(), top(), top()}
		}),
	}
}

// radixCheck returns a check that SortSlice under key sorts the records that
// build makes from in into the records it makes from want, which is in
// sorted by the lexicographic order of the triples.  build maps the triple's
// fields to the order's fields from most to least significant, and the key
// must determine the record, so the two agree record for record although the
// radix sort is not stable.
func radixCheck[T comparable](order string, key func(T) record.Key, build func(triple) T) func(t *testing.T, input string, in, want []triple) {
	s := New(nil, key, iomodel.Config{})
	return func(t *testing.T, input string, in, want []triple) {
		t.Helper()
		recs := make([]T, len(in))
		for i, tr := range in {
			recs[i] = build(tr)
		}
		s.SortSlice(recs)
		for i, tr := range want {
			if w := build(tr); recs[i] != w {
				t.Fatalf("%s, %s: record %d = %+v, want %+v", order, input, i, recs[i], w)
			}
		}
	}
}

func TestRadixSortMatchesReference(t *testing.T) {
	checks := []func(*testing.T, string, []triple, []triple){
		// The one order with a non-zero Hi word (the target): its
		// leading-varying input varies Hi alone.
		radixCheck("EdgeSCCByTargetSCC", record.EdgeSCCByTargetSCC,
			func(x triple) record.EdgeSCC { return record.EdgeSCC{V: x[0], SCC: x[1], U: x[2]} }),
		radixCheck("EdgeBySource", record.EdgeBySource,
			func(x triple) record.Edge { return record.Edge{U: x[0], V: x[1]} }),
		radixCheck("EdgeByTarget", record.EdgeByTarget,
			func(x triple) record.Edge { return record.Edge{V: x[0], U: x[1]} }),
		radixCheck("LabelByNode", record.LabelByNode,
			func(x triple) record.Label { return record.Label{Node: x[0], SCC: x[1]} }),
		radixCheck("LabelBySCC", record.LabelBySCC,
			func(x triple) record.Label { return record.Label{SCC: x[0], Node: x[1]} }),
		radixCheck("NodeByID", record.NodeByID,
			func(x triple) record.NodeID { return x[0] }),
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 1000, 262144} {
		for kind, in := range radixInputs(n, rng) {
			want := slices.Clone(in)
			slices.SortStableFunc(want, compareTriples)
			for _, check := range checks {
				check(t, fmt.Sprintf("%s input of %d", kind, n), in, want)
			}
		}
	}
}

// sortSliceSink keeps BenchmarkSortSlice's result live.
var sortSliceSink any

// benchmarkSortSlice times SortSlice on runs of n random records of the
// contract-web graph's id range (20,000 nodes).  A fresh copy of the same
// random run is restored, outside the timer, before every sort.
func benchmarkSortSlice[T any](b *testing.B, n int, key func(T) record.Key, build func(u, v uint32) T) {
	rng := rand.New(rand.NewSource(1))
	input := make([]T, n)
	for i := range input {
		input[i] = build(uint32(rng.Intn(20000)), uint32(rng.Intn(20000)))
	}
	s := New(nil, key, iomodel.Config{})
	recs := make([]T, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(recs, input)
		b.StartTimer()
		s.SortSlice(recs)
	}
	sortSliceSink = recs
}

// BenchmarkSortSlice covers the run shapes of contract-web at M = 4 MiB:
// runCapacity() is M/2 divided by the record size.
func BenchmarkSortSlice(b *testing.B) {
	const m = 4 << 20
	n := m / 2 / record.EdgeCodec{}.Size()
	b.Run(fmt.Sprintf("Edge/%d", n), func(b *testing.B) {
		benchmarkSortSlice(b, n, record.EdgeBySource,
			func(u, v uint32) record.Edge { return record.Edge{U: u, V: v} })
	})
	n = m / 2 / record.EdgeAugCodec{}.Size()
	b.Run(fmt.Sprintf("EdgeAug/%d", n), func(b *testing.B) {
		benchmarkSortSlice(b, n, record.EdgeAugByTarget,
			func(u, v uint32) record.EdgeAug { return record.EdgeAug{U: u, V: v, InU: u % 97, OutU: u % 89} })
	})
	n = m / 2 / record.EdgeSCCCodec{}.Size()
	b.Run(fmt.Sprintf("EdgeSCC/%d", n), func(b *testing.B) {
		benchmarkSortSlice(b, n, record.EdgeSCCByTargetSCC,
			func(u, v uint32) record.EdgeSCC { return record.EdgeSCC{U: u, V: v, SCC: u % 1000} })
	})
}
