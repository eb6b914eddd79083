package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"extscc/internal/condense"
	"extscc/internal/edgefile"
	"extscc/internal/extsort"
	"extscc/internal/graphgen"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// TestContractShardsCondensed pins the sharded pre-pass's condensed graph
// against the condensation computed in memory from its shard mapping: the
// edge file equals condense.FromMemory under the mapping, and the node file
// holds exactly the nodes that represent themselves.  The edge file must
// also hold what its Sorted declaration promises: sorted by source, with no
// repeated edge and no self-loop.  Both codec families, at 2 and 3 shards.
func TestContractShardsCondensed(t *testing.T) {
	edges := graphgen.Random(300, 900, 3)
	tarjan := memgraph.FromEdges(edges, nil).Tarjan()
	for _, codec := range []string{"fixed", "varint"} {
		for _, shards := range []int{2, 3} {
			cfg := testConfig(t, 40)
			cfg.Codec = codec
			g, err := edgefile.WriteGraph(cfg.TempDir, edges, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ContractShards(context.Background(), g, cfg.TempDir, shards, Options{Optimized: true}, cfg)
			if err != nil {
				t.Fatalf("%s/%d shards: %v", codec, shards, err)
			}
			mapping, err := recio.ReadAll(res.MappingPath, record.LabelCodec{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			labelOf := map[record.NodeID]record.SCCID{}
			var reps []record.NodeID
			for _, l := range mapping {
				labelOf[l.Node] = l.SCC
				if l.Node == l.SCC {
					reps = append(reps, l.Node)
				}
				if !tarjan.SameSCC(l.Node, l.SCC) {
					t.Fatalf("%s/%d shards: node %d maps to %d, outside its SCC", codec, shards, l.Node, l.SCC)
				}
			}
			if int64(len(reps)) == g.NumNodes {
				t.Fatalf("%s/%d shards: no shard-local component contracted; the check needs some", codec, shards)
			}

			c := res.Condensed
			want := condense.FromMemory(labelOf, edges)
			got, err := condense.Load(c.EdgePath, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumEdges != want.NumEdges || got.NumEdges != want.NumEdges || !reflect.DeepEqual(got.Succ, want.Succ) {
				t.Fatalf("%s/%d shards: condensed edges (%d declared, %d read) differ from the in-memory condensation (%d)", codec, shards, c.NumEdges, got.NumEdges, want.NumEdges)
			}
			nodes, err := recio.ReadAll(c.NodePath, record.NodeCodec{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumNodes != int64(len(reps)) || !slices.Equal(nodes, reps) {
				t.Fatalf("%s/%d shards: condensed nodes %v (%d declared), want the representatives %v", codec, shards, nodes, c.NumNodes, reps)
			}

			if !c.Sorted {
				t.Fatalf("%s/%d shards: condensed graph not declared Sorted", codec, shards)
			}
			sorted, err := extsort.Sorted(c.EdgePath, record.EdgeCodec{}, record.EdgeBySource, cfg)
			if err != nil || !sorted {
				t.Fatalf("%s/%d shards: condensed edges not sorted by source (err %v)", codec, shards, err)
			}
			es, err := recio.ReadAll(c.EdgePath, record.EdgeCodec{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range es {
				if e.U == e.V || (i > 0 && e == es[i-1]) {
					t.Fatalf("%s/%d shards: condensed edge %d (%v) is a self-loop or repeats its predecessor", codec, shards, i, e)
				}
			}
			if err := res.Remove(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
}
