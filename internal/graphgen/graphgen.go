// Package graphgen generates the workloads of the paper's evaluation: the
// three synthetic dataset families of Table I (Massive-SCC, Large-SCC,
// Small-SCC), a web-graph-like generator that stands in for WEBSPAM-UK2007,
// and a set of simple structured generators (cycles, paths, DAGs, random
// graphs) used by tests.
//
// Generators are deterministic for a given seed.  They can materialise edges
// in memory (tests) or stream them directly to an on-disk edge file
// (benchmarks), in which case only O(|V|) generator state is held in memory;
// the generated files are inputs to the algorithms being measured, so their
// production cost is not part of any reported I/O count (a dedicated Stats is
// used).
package graphgen

import (
	"fmt"
	"math"
	"math/rand"

	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// SyntheticParams describes one synthetic dataset in the style of Table I.
// All planted SCCs are node-disjoint; remaining nodes participate only in the
// random background edges.
type SyntheticParams struct {
	// NumNodes is |V|.
	NumNodes int
	// AvgDegree is the average out-degree D; the total number of edges is
	// approximately NumNodes*AvgDegree.
	AvgDegree int
	// MassiveSCCSize and MassiveSCCCount describe the planted massive SCCs.
	MassiveSCCSize  int
	MassiveSCCCount int
	// LargeSCCSize and LargeSCCCount describe the planted large SCCs.
	LargeSCCSize  int
	LargeSCCCount int
	// SmallSCCSize and SmallSCCCount describe the planted small SCCs.
	SmallSCCSize  int
	SmallSCCCount int
	// Seed drives the deterministic pseudo-random generator.
	Seed int64
}

// Validate checks that the planted SCCs fit into the node set.
func (p SyntheticParams) Validate() error {
	if p.NumNodes <= 0 {
		return fmt.Errorf("graphgen: NumNodes must be positive, got %d", p.NumNodes)
	}
	if p.AvgDegree < 0 {
		return fmt.Errorf("graphgen: AvgDegree must be non-negative, got %d", p.AvgDegree)
	}
	planted := p.plantedNodes()
	if planted > p.NumNodes {
		return fmt.Errorf("graphgen: planted SCC nodes (%d) exceed NumNodes (%d)", planted, p.NumNodes)
	}
	return nil
}

func (p SyntheticParams) plantedNodes() int {
	return p.MassiveSCCSize*p.MassiveSCCCount + p.LargeSCCSize*p.LargeSCCCount + p.SmallSCCSize*p.SmallSCCCount
}

// TargetEdges returns the approximate number of edges the generator produces.
func (p SyntheticParams) TargetEdges() int64 { return int64(p.NumNodes) * int64(p.AvgDegree) }

// The paper's Table I defaults, scaled down by the given factor (the paper
// uses 25M-200M nodes; scale=1000 yields the repository defaults of 25K-200K).
// The planted-SCC parameters are divided by the same factor so every dataset
// keeps the paper's planted fraction of ~0.4% of the nodes: the massive SCC's
// size, the large SCCs' size and the small SCCs' count scale, while the large
// SCCs' count (50), the small SCCs' size (40) and the massive SCC count (1)
// are the paper's fixed defaults.

func atLeast(v, min int) int {
	if v < min {
		return min
	}
	return v
}

// MassiveSCCParams returns the Massive-SCC dataset defaults of Table I scaled
// down by scale.
func MassiveSCCParams(scale int) SyntheticParams {
	return SyntheticParams{
		NumNodes:        atLeast(100_000_000/scale, 100),
		AvgDegree:       4,
		MassiveSCCSize:  atLeast(400_000/scale, 4),
		MassiveSCCCount: 1,
		Seed:            1,
	}
}

// LargeSCCParams returns the Large-SCC dataset defaults of Table I scaled
// down by scale.
func LargeSCCParams(scale int) SyntheticParams {
	return SyntheticParams{
		NumNodes:      atLeast(100_000_000/scale, 100),
		AvgDegree:     4,
		LargeSCCSize:  atLeast(8_000/scale, 2),
		LargeSCCCount: 50,
		Seed:          2,
	}
}

// SmallSCCParams returns the Small-SCC dataset defaults of Table I scaled
// down by scale.
func SmallSCCParams(scale int) SyntheticParams {
	p := SyntheticParams{
		NumNodes:      atLeast(100_000_000/scale, 100),
		AvgDegree:     4,
		SmallSCCSize:  40,
		SmallSCCCount: atLeast(10_000/scale, 1),
		Seed:          3,
	}
	// Keep the planted portion below the node budget at aggressive scales.
	for p.SmallSCCSize*p.SmallSCCCount > p.NumNodes/2 && p.SmallSCCCount > 1 {
		p.SmallSCCCount /= 2
	}
	return p
}

// Generate materialises the dataset as an in-memory edge list.  Only suitable
// for test-sized parameters.
func (p SyntheticParams) Generate() ([]record.Edge, error) {
	var edges []record.Edge
	err := p.generate(func(e record.Edge) error {
		edges = append(edges, e)
		return nil
	})
	return edges, err
}

// WriteTo streams the dataset to an edge file at path and returns the number
// of edges written.
func (p SyntheticParams) WriteTo(path string, cfg iomodel.Config) (int64, error) {
	w, err := recio.NewWriter(path, record.EdgeCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	if err := p.generate(w.Write); err != nil {
		w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), nil
}

// generate produces the edges of the dataset in a deterministic order, calling
// emit for each one.
func (p SyntheticParams) generate(emit func(record.Edge) error) error {
	if err := p.Validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.NumNodes

	// Assign planted SCC members: a random permutation prefix is carved into
	// consecutive member groups, exactly like "randomly selecting all nodes in
	// SCCs first" in Section VIII.
	perm := rng.Perm(n)
	pos := 0
	take := func(k int) []record.NodeID {
		members := make([]record.NodeID, k)
		for i := 0; i < k; i++ {
			members[i] = record.NodeID(perm[pos])
			pos++
		}
		return members
	}
	emitted := int64(0)
	countingEmit := func(e record.Edge) error {
		emitted++
		return emit(e)
	}
	// A Hamiltonian cycle over the members makes them strongly connected; a
	// few random chords thicken the component.
	emitSCC := func(members []record.NodeID) error {
		k := len(members)
		if k == 0 {
			return nil
		}
		for i := 0; i < k; i++ {
			if err := countingEmit(record.Edge{U: members[i], V: members[(i+1)%k]}); err != nil {
				return err
			}
		}
		extra := k / 2
		for i := 0; i < extra; i++ {
			a := members[rng.Intn(k)]
			b := members[rng.Intn(k)]
			if a == b {
				continue
			}
			if err := countingEmit(record.Edge{U: a, V: b}); err != nil {
				return err
			}
		}
		return nil
	}

	groups := []struct{ size, count int }{
		{p.MassiveSCCSize, p.MassiveSCCCount},
		{p.LargeSCCSize, p.LargeSCCCount},
		{p.SmallSCCSize, p.SmallSCCCount},
	}
	for _, grp := range groups {
		for c := 0; c < grp.count; c++ {
			if err := emitSCC(take(grp.size)); err != nil {
				return err
			}
		}
	}

	// Background random edges up to the target edge count.
	target := p.TargetEdges()
	for emitted < target {
		u := record.NodeID(rng.Intn(n))
		v := record.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := countingEmit(record.Edge{U: u, V: v}); err != nil {
			return err
		}
	}
	return nil
}

// AllNodes returns the full node id list 0..NumNodes-1, including nodes that
// end up isolated.
func (p SyntheticParams) AllNodes() []record.NodeID {
	nodes := make([]record.NodeID, p.NumNodes)
	for i := range nodes {
		nodes[i] = record.NodeID(i)
	}
	return nodes
}

// ---------------------------------------------------------------------------
// Web-graph-like generator (WEBSPAM-UK2007 stand-in)
// ---------------------------------------------------------------------------

// WebGraphParams describes the web-graph-like workload used in place of
// WEBSPAM-UK2007, the paper's real web crawl, which the repository does not
// ship: a generated graph with a crawl's shape stands in for it.  Out-degrees
// follow a heavy-tailed distribution, targets mix host-local links with
// global popularity-biased links, and a giant strongly connected core is
// planted the way real web crawls exhibit one.
type WebGraphParams struct {
	// NumNodes is |V|.
	NumNodes int
	// AvgDegree is the average out-degree (the paper's crawl averages 35).
	AvgDegree int
	// CoreFraction is the fraction of nodes in the giant strongly connected
	// core (0..1).
	CoreFraction float64
	// HostSize models locality: node ids are grouped into hosts of this size
	// and most links stay within a host neighbourhood.
	HostSize int
	// Seed drives the deterministic pseudo-random generator.
	Seed int64
}

// DefaultWebGraphParams returns the scaled-down stand-in for WEBSPAM-UK2007.
func DefaultWebGraphParams() WebGraphParams {
	return WebGraphParams{
		NumNodes:     120_000,
		AvgDegree:    12,
		CoreFraction: 0.35,
		HostSize:     100,
		Seed:         7,
	}
}

// Validate checks the parameters.
func (p WebGraphParams) Validate() error {
	if p.NumNodes <= 0 {
		return fmt.Errorf("graphgen: NumNodes must be positive, got %d", p.NumNodes)
	}
	if p.AvgDegree <= 0 {
		return fmt.Errorf("graphgen: AvgDegree must be positive, got %d", p.AvgDegree)
	}
	if p.CoreFraction < 0 || p.CoreFraction > 1 {
		return fmt.Errorf("graphgen: CoreFraction must be in [0,1], got %f", p.CoreFraction)
	}
	if p.HostSize <= 0 {
		return fmt.Errorf("graphgen: HostSize must be positive, got %d", p.HostSize)
	}
	return nil
}

// Generate materialises the web-like graph in memory.
func (p WebGraphParams) Generate() ([]record.Edge, error) {
	var edges []record.Edge
	err := p.generate(func(e record.Edge) error {
		edges = append(edges, e)
		return nil
	})
	return edges, err
}

// WriteTo streams the web-like graph to an edge file at path.
func (p WebGraphParams) WriteTo(path string, cfg iomodel.Config) (int64, error) {
	w, err := recio.NewWriter(path, record.EdgeCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	if err := p.generate(w.Write); err != nil {
		w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), nil
}

func (p WebGraphParams) generate(emit func(record.Edge) error) error {
	if err := p.Validate(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.NumNodes
	core := int(float64(n) * p.CoreFraction)

	// Giant strongly connected core: nodes 0..core-1 on a cycle plus chords.
	if core > 1 {
		for i := 0; i < core; i++ {
			if err := emit(record.Edge{U: record.NodeID(i), V: record.NodeID((i + 1) % core)}); err != nil {
				return err
			}
		}
		for i := 0; i < core; i++ {
			if err := emit(record.Edge{U: record.NodeID(rng.Intn(core)), V: record.NodeID(rng.Intn(core))}); err != nil {
				return err
			}
		}
	}

	// Heavy-tailed out-degrees for all nodes; targets are 70% host-local and
	// 30% global with a bias towards low node ids (popular pages).
	for u := 0; u < n; u++ {
		deg := heavyTailDegree(rng, p.AvgDegree)
		host := u / p.HostSize
		hostStart := host * p.HostSize
		hostEnd := hostStart + p.HostSize
		if hostEnd > n {
			hostEnd = n
		}
		for k := 0; k < deg; k++ {
			var v int
			if rng.Float64() < 0.7 && hostEnd-hostStart > 1 {
				v = hostStart + rng.Intn(hostEnd-hostStart)
			} else {
				// Popularity bias: squaring the uniform variate concentrates
				// mass on small ids.
				f := rng.Float64()
				v = int(f * f * float64(n))
				if v >= n {
					v = n - 1
				}
			}
			if v == u {
				continue
			}
			if err := emit(record.Edge{U: record.NodeID(u), V: record.NodeID(v)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// heavyTailDegree samples a heavy-tailed degree with the given mean: most
// nodes get a small degree, a few get a large one (bounded Pareto shape).
func heavyTailDegree(rng *rand.Rand, mean int) int {
	if mean <= 0 {
		return 0
	}
	u := rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	// Pareto with alpha=2 has mean 2*xm; choose xm = mean/2.
	xm := float64(mean) / 2
	d := xm / math.Sqrt(u)
	maxDeg := float64(mean * 50)
	if d > maxDeg {
		d = maxDeg
	}
	return int(d + 0.5)
}

// AllNodes returns the node id list 0..NumNodes-1.
func (p WebGraphParams) AllNodes() []record.NodeID {
	nodes := make([]record.NodeID, p.NumNodes)
	for i := range nodes {
		nodes[i] = record.NodeID(i)
	}
	return nodes
}

// ---------------------------------------------------------------------------
// Structured generators used by tests and the EM-SCC non-termination study
// ---------------------------------------------------------------------------

// Random returns m uniformly random edges over n nodes (self-loops excluded),
// deterministic for the seed.
func Random(n int, m int, seed int64) []record.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]record.Edge, 0, m)
	for len(edges) < m {
		u := record.NodeID(rng.Intn(n))
		v := record.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, record.Edge{U: u, V: v})
	}
	return edges
}

// Cycle returns the n-node directed cycle 0 -> 1 -> ... -> n-1 -> 0, a single
// SCC containing every node.
func Cycle(n int) []record.Edge {
	edges := make([]record.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, record.Edge{U: record.NodeID(i), V: record.NodeID((i + 1) % n)})
	}
	return edges
}

// Path returns the n-node directed path 0 -> 1 -> ... -> n-1, a DAG in which
// every node is its own SCC.
func Path(n int) []record.Edge {
	edges := make([]record.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, record.Edge{U: record.NodeID(i), V: record.NodeID(i + 1)})
	}
	return edges
}

// DAGLayered returns a layered DAG over n nodes with roughly m edges, all
// oriented from lower to higher node ids (hence acyclic); the workload of the
// paper's Case-2 discussion for EM-SCC non-termination.
func DAGLayered(n, m int, seed int64) []record.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]record.Edge, 0, m)
	for len(edges) < m {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		edges = append(edges, record.Edge{U: record.NodeID(u), V: record.NodeID(v)})
	}
	return edges
}

// PaperExample returns the 13-node, 20-edge graph of Fig. 1 of the paper
// (nodes a..m mapped to 0..12).  Its two non-trivial SCCs are
// {b,c,d,e,f,g} = {1,2,3,4,5,6} and {i,j,k,l} = {8,9,10,11}.
func PaperExample() ([]record.Edge, []record.NodeID) {
	// a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10 l=11 m=12
	edges := []record.Edge{
		{U: 0, V: 1},   // a->b
		{U: 1, V: 2},   // b->c
		{U: 2, V: 3},   // c->d
		{U: 3, V: 4},   // d->e
		{U: 4, V: 5},   // e->f
		{U: 5, V: 6},   // f->g
		{U: 6, V: 1},   // g->b
		{U: 2, V: 4},   // c->e
		{U: 4, V: 6},   // e->g
		{U: 6, V: 7},   // g->h
		{U: 5, V: 7},   // f->h
		{U: 7, V: 8},   // h->i
		{U: 8, V: 9},   // i->j
		{U: 9, V: 10},  // j->k
		{U: 10, V: 11}, // k->l
		{U: 11, V: 8},  // l->i
		{U: 8, V: 10},  // i->k
		{U: 9, V: 12},  // j->m  (m has no outgoing edge back, so it stays a singleton)
		{U: 10, V: 8},  // k->i
		{U: 11, V: 9},  // l->j
	}
	nodes := make([]record.NodeID, 13)
	for i := range nodes {
		nodes[i] = record.NodeID(i)
	}
	return edges, nodes
}

// SampleEdges streams the edge file at in to out, keeping each edge with
// probability percent/100 (deterministic for the seed).  It implements the
// "vary graph size from 20% to 100% of the edges" sweep of Fig. 6.
func SampleEdges(in, out string, percent int, seed int64, cfg iomodel.Config) (int64, error) {
	if percent < 0 || percent > 100 {
		return 0, fmt.Errorf("graphgen: percent must be in [0,100], got %d", percent)
	}
	r, err := recio.NewReader(in, record.EdgeCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	w, err := recio.NewWriter(out, record.EdgeCodec{}, cfg)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	threshold := float64(percent) / 100
	it := r.Iter()
	for {
		e, ok, err := it.Next()
		if err != nil {
			w.Close()
			return 0, err
		}
		if !ok {
			break
		}
		if rng.Float64() < threshold {
			if err := w.Write(e); err != nil {
				w.Close()
				return 0, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), nil
}
