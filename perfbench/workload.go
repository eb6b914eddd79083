package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"extscc"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// workload is one input family and the way the benchmark drives the
// program over it.  Exactly one of batch and serve is set.
type workload struct {
	name string
	why  string
	gen  extscc.GeneratorSpec

	batch *batchSpec
	serve *serveSpec
}

// batchSpec is an Engine.Run configuration.  Zero fields keep the engine's
// shipped default.
type batchSpec struct {
	NodeBudget int64  `json:"node_budget"`
	Memory     int64  `json:"memory"`
	Block      int    `json:"block"`
	Codec      string `json:"codec"`
	Workers    int    `json:"workers"`
}

// serveSpec is a closed loop of clients against serve.New's handler.
type serveSpec struct {
	clients int
	// warmup is per client and server lifetime; it fills the LRU, so that
	// the timed sessions see its steady state.  Then each lifetime has
	// sessions timed sessions of queries per client each.
	warmup, sessions, queries int
}

// workloads are the benchmark's workloads.  The sizes were chosen so that a
// run of each does its characteristic work in a few seconds on a 2-vCPU
// host; no workload uses more than two threads or connections.  There are
// two so that a run can be long enough for six or more contract-web samples
// of 4-8 s each while two sets of ten seeds per workload still fit in an
// hour: with four or five samples, the middle half of ten runs of the same
// code spread over up to 30% of their median on a busy host.
var workloads = []workload{
	{
		name: "contract-web",
		why:  "the paper's contraction regime: three contraction iterations grow |E| from 252k to 451k, single-threaded; extsort, contraction and expansion dominate",
		gen:  extscc.GeneratorSpec{Kind: "web", Nodes: 20_000},
		batch: &batchSpec{
			NodeBudget: 15_000, Memory: 4 << 20, Block: 64 << 10, Codec: record.FamilyVarint, Workers: 1,
		},
	},
	{
		name:  "serve-large",
		why:   "random access: a closed loop of 2 clients queries sccserve defaults over Large-SCC; LRU misses wait out the batch window and probe the label file",
		gen:   extscc.GeneratorSpec{Kind: "large", Scale: 1000},
		serve: &serveSpec{clients: 2, warmup: 1200, sessions: 5, queries: 500},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineOptions returns the engine options of a batch run on backend.
func (s *batchSpec) engineOptions(backend extscc.Storage, tmp string) []extscc.Option {
	opts := []extscc.Option{
		extscc.WithStorage(backend), extscc.WithTempDir(tmp),
		extscc.WithNodeBudget(s.NodeBudget), extscc.WithWorkers(s.Workers),
		extscc.WithMemory(s.Memory), extscc.WithBlockSize(s.Block),
	}
	if s.Codec != "" {
		opts = append(opts, extscc.WithCodec(s.Codec))
	}
	return opts
}

// ioConfig returns the iomodel configuration extscc.New derives from the
// same options, for the traced sample's direct layer calls.
func (s *batchSpec) ioConfig(backend storage.Backend, tmp string) (iomodel.Config, error) {
	cfg, err := iomodel.Config{
		BlockSize: s.Block, Memory: s.Memory, NodeBudget: s.NodeBudget,
		TempDir: tmp, Workers: s.Workers, Codec: s.Codec, Storage: backend,
	}.Validate()
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg, err
}

// input is a workload's generated edge file and its in-memory oracle.  The
// edges themselves are not kept, so that the benchmark holds little memory
// of its own while it measures.
type input struct {
	path     string
	numEdges int
	or       *oracle
}

// inputConfig is the configuration GeneratorSpec.WriteEdgeFileOn writes an
// edge file under; the benchmark reads and writes inputs with it.
func inputConfig() (iomodel.Config, error) {
	return iomodel.Config{BlockSize: iomodel.DefaultBlockSize, Memory: iomodel.DefaultMemory, Storage: storage.OS()}.Validate()
}

func (in *input) readEdges() ([]record.Edge, error) {
	cfg, err := inputConfig()
	if err != nil {
		return nil, err
	}
	return recio.ReadAll(in.path, record.EdgeCodec{}, cfg)
}

// makeInput writes the workload's edge file for seed exactly as
// `sccgen -kind <kind> ... -seed <seed>` writes it, reads it back, and
// solves it in memory.  It also checks that the program's edge-file writer,
// which every batch sample's set-up uses, reproduces the file byte for byte.
func makeInput(w workload, seed int64, path string) (*input, error) {
	spec := w.gen
	spec.Seed = seed
	if _, _, err := spec.WriteEdgeFileOn(extscc.OSStorage(), path); err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	in := &input{path: path}
	edges, err := in.readEdges()
	if err != nil {
		return nil, fmt.Errorf("read back %s: %w", path, err)
	}
	if w.batch != nil {
		cfg, err := inputConfig()
		if err != nil {
			return nil, err
		}
		again := path + ".rewritten"
		if err := recio.WriteSlice(again, record.EdgeCodec{}, cfg, edges); err != nil {
			return nil, err
		}
		a, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		b, err := os.ReadFile(again)
		os.Remove(again)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(a, b) {
			return nil, fmt.Errorf("rewriting %s gives different bytes (%d vs %d)", path, len(b), len(a))
		}
	}
	in.numEdges, in.or = len(edges), newOracle(edges)
	return in, nil
}

// oracle is the in-memory answer key: memgraph's Tarjan partition of the
// generated edges and reachability over its condensation.
type oracle struct {
	numNodes int
	numSCCs  int
	dagNodes int
	// comp maps a node id to its component index, -1 for ids absent from
	// the graph.
	comp []int32
	succ [][]int32 // condensation adjacency by component index
	// reach caches, per source component, the bitset of reachable
	// components.
	reach map[int32][]uint64
}

func newOracle(edges []record.Edge) *oracle {
	g := memgraph.FromEdges(edges, nil)
	res := g.Tarjan()
	o := &oracle{numNodes: g.NumNodes(), numSCCs: res.Count, succ: make([][]int32, res.Count), reach: map[int32][]uint64{}}
	maxID := record.NodeID(0)
	for _, n := range g.Nodes() {
		maxID = max(maxID, n)
	}
	o.comp = make([]int32, int(maxID)+1)
	for i := range o.comp {
		o.comp[i] = -1
	}
	for _, n := range g.Nodes() {
		o.comp[n] = int32(res.ComponentOf(n))
	}
	inDAG := make([]bool, res.Count)
	for _, e := range g.CondensationEdges(res) {
		o.succ[e.U] = append(o.succ[e.U], int32(e.V))
		inDAG[e.U], inDAG[e.V] = true, true
	}
	for _, in := range inDAG {
		if in {
			o.dagNodes++
		}
	}
	return o
}

// compOf returns the component of node, or -1 when the graph lacks it.
func (o *oracle) compOf(n record.NodeID) int32 {
	if int(n) >= len(o.comp) {
		return -1
	}
	return o.comp[n]
}

// reaches reports whether component a reaches component b.
func (o *oracle) reaches(a, b int32) bool {
	set, ok := o.reach[a]
	if !ok {
		set = make([]uint64, (o.numSCCs+63)/64)
		set[a/64] |= 1 << (a % 64)
		stack := []int32{a}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, d := range o.succ[c] {
				if set[d/64]&(1<<(d%64)) == 0 {
					set[d/64] |= 1 << (d % 64)
					stack = append(stack, d)
				}
			}
		}
		o.reach[a] = set
	}
	return set[b/64]&(1<<(b%64)) != 0
}

// partitionCheck verifies SCC labels against the oracle partition: every
// node of the graph labelled once, and labels in one-to-one correspondence
// with the oracle's components.  Label values are the program's choice; only
// the grouping is checked.
type partitionCheck struct {
	o   *oracle
	fwd map[int32]uint32 // component -> label
	rev map[uint32]int32 // label -> component
}

func (o *oracle) newCheck() *partitionCheck {
	return &partitionCheck{o: o, fwd: map[int32]uint32{}, rev: map[uint32]int32{}}
}

// label checks one (node, label) answer; it fails for a node the graph
// lacks and for a label that contradicts an earlier answer.
func (c *partitionCheck) label(node record.NodeID, scc uint32) error {
	comp := c.o.compOf(node)
	if comp < 0 {
		return fmt.Errorf("node %d is not in the graph but was labelled %d", node, scc)
	}
	if prev, ok := c.fwd[comp]; ok && prev != scc {
		return fmt.Errorf("node %d labelled %d, but its component was labelled %d", node, scc, prev)
	}
	if prev, ok := c.rev[scc]; ok && prev != comp {
		return fmt.Errorf("label %d names two different components (node %d)", scc, node)
	}
	c.fwd[comp], c.rev[scc] = scc, comp
	return nil
}

// checkLabels verifies a complete node-sorted labelling.
func (o *oracle) checkLabels(labels []record.Label) error {
	if len(labels) != o.numNodes {
		return fmt.Errorf("%d labels for a graph of %d nodes", len(labels), o.numNodes)
	}
	c := o.newCheck()
	for i, l := range labels {
		if i > 0 && l.Node <= labels[i-1].Node {
			return fmt.Errorf("labels not strictly sorted by node at %d", i)
		}
		if err := c.label(l.Node, l.SCC); err != nil {
			return err
		}
	}
	if len(c.fwd) != o.numSCCs {
		return fmt.Errorf("%d labels for %d components", len(c.fwd), o.numSCCs)
	}
	return nil
}

// queryIDs draws n node ids Zipf(s=1.1)-distributed over a seeded
// permutation of the id range, widened by 2% so that some ids are absent
// from the graph.
func queryIDs(rng *rand.Rand, o *oracle, n int) []record.NodeID {
	universe := len(o.comp) + len(o.comp)/50
	perm := rng.Perm(universe)
	z := rand.NewZipf(rng, 1.1, 1, uint64(universe-1))
	ids := make([]record.NodeID, n)
	for i := range ids {
		ids[i] = record.NodeID(perm[z.Uint64()])
	}
	return ids
}
