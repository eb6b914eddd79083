package extscc_test

import (
	"context"
	"errors"
	"testing"

	"extscc"
	"extscc/internal/graphgen"
	"extscc/internal/memgraph"
)

// fuzzAlgorithms are the built-in algorithms FuzzEngine chooses from, by
// name: extscc.Algorithms() also lists what tests register.
var fuzzAlgorithms = []string{"ext-scc", "ext-scc-op", "dfs-scc", "em-scc", "semi-scc"}

// FuzzEngine runs one engine run per input: a random graph of 2-65 nodes
// with up to 4 edges per node, one built-in algorithm, codec fixed or
// varint, storage os or mem, 0-4 compute shards and a node budget of
// 1..|V|, at M = 64 KiB and B = 4 KiB.  The partition must equal Tarjan's;
// em-scc may fail to converge instead.
func FuzzEngine(f *testing.F) {
	// seed, nodes-2, edges, algorithm, fixed codec, mem storage, shards, node budget-1
	f.Add(int64(1), uint8(7), uint16(27), uint8(1), false, false, uint8(4), uint16(8)) // 9 nodes in 4 shards
	f.Add(int64(2), uint8(7), uint16(20), uint8(2), true, true, uint8(4), uint16(2))
	f.Add(int64(3), uint8(40), uint16(120), uint8(0), false, true, uint8(3), uint16(5))
	f.Add(int64(4), uint8(63), uint16(260), uint8(3), true, false, uint8(0), uint16(30))
	f.Add(int64(5), uint8(20), uint16(0), uint8(4), false, false, uint8(2), uint16(0))
	f.Add(int64(6), uint8(0), uint16(3), uint8(1), true, true, uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, edges uint16, algo uint8, fixed, mem bool, shards uint8, budget uint16) {
		n := 2 + int(nodes)%64
		g := graphgen.Random(n, int(edges)%(4*n+1), seed)
		all := make([]extscc.NodeID, n)
		for i := range all {
			all[i] = extscc.NodeID(i)
		}
		codec, backend := extscc.CodecVarint, extscc.OSStorage()
		if fixed {
			codec = extscc.CodecFixed
		}
		if mem {
			backend = extscc.MemStorage()
		}
		name := fuzzAlgorithms[int(algo)%len(fuzzAlgorithms)]
		eng, err := extscc.New(
			extscc.WithAlgorithm(name),
			extscc.WithCodec(codec),
			extscc.WithStorage(backend),
			extscc.WithTempDir(t.TempDir()),
			extscc.WithShards(int(shards)%5),
			extscc.WithNodeBudget(1+int64(budget)%int64(n)),
			extscc.WithMemory(64<<10),
			extscc.WithBlockSize(4<<10),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), extscc.SliceSource(g, all...))
		if name == "em-scc" && errors.Is(err, extscc.ErrDidNotConverge) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		got, err := res.Labels()
		if err != nil {
			t.Fatal(err)
		}
		want := memgraph.FromEdges(g, all).Tarjan().Labels()
		if !memgraph.SameSCCPartition(got, want) {
			t.Fatalf("%s (codec %s, storage %s, %d shards) on %d nodes and %d edges: partition differs from Tarjan's\ngot  %v\nwant %v",
				name, codec, backend.Name(), int(shards)%5, n, len(g), got, want)
		}
	})
}
