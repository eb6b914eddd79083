// Package memgraph provides an in-memory directed graph together with the
// classic linear-time SCC algorithms (Tarjan and Kosaraju–Sharir).  It serves
// three roles in this repository: ground truth for the external algorithms in
// tests, the in-memory solver used inside EM-SCC partitions, and the final
// solver when an entire (contracted) graph fits in the memory budget.
package memgraph

import (
	"sort"

	"extscc/internal/record"
)

// Graph is an in-memory directed graph over arbitrary uint32 node
// identifiers.  Nodes are mapped to dense indices internally.
type Graph struct {
	ids    []record.NodeID       // index -> node id
	index  map[record.NodeID]int // node id -> index
	adj    [][]int32             // out-adjacency by index
	radj   [][]int32             // in-adjacency by index (built lazily)
	edges  int64
	hasRev bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[record.NodeID]int)}
}

// FromEdges builds a graph from an edge list plus optional isolated nodes.
func FromEdges(edges []record.Edge, extraNodes []record.NodeID) *Graph {
	g := New()
	for _, n := range extraNodes {
		g.AddNode(n)
	}
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// AddNode ensures node n exists and returns its dense index.
func (g *Graph) AddNode(n record.NodeID) int {
	if idx, ok := g.index[n]; ok {
		return idx
	}
	idx := len(g.ids)
	g.index[n] = idx
	g.ids = append(g.ids, n)
	g.adj = append(g.adj, nil)
	return idx
}

// AddEdge adds the directed edge u -> v, creating both endpoints as needed.
// Parallel edges and self-loops are stored as given.
func (g *Graph) AddEdge(u, v record.NodeID) {
	ui := g.AddNode(u)
	vi := g.AddNode(v)
	g.adj[ui] = append(g.adj[ui], int32(vi))
	g.edges++
	g.hasRev = false
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns |E| counting parallel edges.
func (g *Graph) NumEdges() int64 { return g.edges }

// Nodes returns the node identifiers in insertion order.
func (g *Graph) Nodes() []record.NodeID { return g.ids }

// HasNode reports whether node n is present.
func (g *Graph) HasNode(n record.NodeID) bool {
	_, ok := g.index[n]
	return ok
}

// OutNeighbors returns the out-neighbour node ids of n (with multiplicity).
func (g *Graph) OutNeighbors(n record.NodeID) []record.NodeID {
	idx, ok := g.index[n]
	if !ok {
		return nil
	}
	out := make([]record.NodeID, len(g.adj[idx]))
	for i, t := range g.adj[idx] {
		out[i] = g.ids[t]
	}
	return out
}

func (g *Graph) buildReverse() {
	if g.hasRev {
		return
	}
	g.radj = make([][]int32, len(g.ids))
	for u, ns := range g.adj {
		for _, v := range ns {
			g.radj[v] = append(g.radj[v], int32(u))
		}
	}
	g.hasRev = true
}

// SCCResult is the SCC partition of a graph.
type SCCResult struct {
	// Comp maps a dense node index to its component index (0-based).
	Comp []int
	// Count is the number of components.
	Count int
	graph *Graph
}

// Labels converts the partition into (node, SCC) labels where each SCC
// identifier is the minimum node id among its members, sorted by node id.
func (r SCCResult) Labels() []record.Label {
	minID := make([]record.NodeID, r.Count)
	for i := range minID {
		minID[i] = ^record.NodeID(0)
	}
	for idx, comp := range r.Comp {
		id := r.graph.ids[idx]
		if id < minID[comp] {
			minID[comp] = id
		}
	}
	labels := make([]record.Label, len(r.Comp))
	for idx, comp := range r.Comp {
		labels[idx] = record.Label{Node: r.graph.ids[idx], SCC: minID[comp]}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Node < labels[j].Node })
	return labels
}

// ComponentOf returns the component index of node n; it panics if n is not in
// the graph.
func (r SCCResult) ComponentOf(n record.NodeID) int {
	return r.Comp[r.graph.index[n]]
}

// SameSCC reports whether nodes a and b are in the same strongly connected
// component.
func (r SCCResult) SameSCC(a, b record.NodeID) bool {
	return r.ComponentOf(a) == r.ComponentOf(b)
}

// Sizes returns the size of every component indexed by component id.
func (r SCCResult) Sizes() []int {
	sizes := make([]int, r.Count)
	for _, c := range r.Comp {
		sizes[c]++
	}
	return sizes
}

// Tarjan computes the SCC partition with an iterative Tarjan algorithm (no
// recursion, so graphs with long paths do not overflow the goroutine stack).
func (g *Graph) Tarjan() SCCResult {
	n := len(g.ids)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int32
	var counter, compCount int

	// Explicit DFS frame: node and position in its adjacency list.
	type frame struct {
		node int32
		next int
	}
	var frames []frame

	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{node: int32(start)})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, int32(start))
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.node
			if f.next < len(g.adj[u]) {
				v := g.adj[u][f.next]
				f.next++
				if index[v] == unvisited {
					index[v] = counter
					low[v] = counter
					counter++
					stack = append(stack, v)
					onStack[v] = true
					frames = append(frames, frame{node: v})
				} else if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			// u finished: pop its component if it is a root.
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCount
					if w == u {
						break
					}
				}
				compCount++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[u] < low[parent] {
					low[parent] = low[u]
				}
			}
		}
	}
	return SCCResult{Comp: comp, Count: compCount, graph: g}
}

// Kosaraju computes the SCC partition with the Kosaraju–Sharir two-pass DFS
// algorithm (Algorithm 1 of the paper, executed fully in memory).  It is kept
// as an independent implementation to cross-check Tarjan in tests.
func (g *Graph) Kosaraju() SCCResult {
	n := len(g.ids)
	g.buildReverse()

	// First pass: DFS on G recording decreasing postorder.
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	type frame struct {
		node int32
		next int
	}
	var frames []frame
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		frames = append(frames[:0], frame{node: int32(start)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(g.adj[f.node]) {
				v := g.adj[f.node][f.next]
				f.next++
				if !visited[v] {
					visited[v] = true
					frames = append(frames, frame{node: v})
				}
				continue
			}
			order = append(order, f.node)
			frames = frames[:len(frames)-1]
		}
	}

	// Second pass: DFS on the reversed graph in decreasing postorder; every
	// tree is one SCC.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	compCount := 0
	var stack []int32
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] != -1 {
			continue
		}
		stack = append(stack[:0], root)
		comp[root] = compCount
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.radj[u] {
				if comp[v] == -1 {
					comp[v] = compCount
					stack = append(stack, v)
				}
			}
		}
		compCount++
	}
	return SCCResult{Comp: comp, Count: compCount, graph: g}
}

// CondensationEdges returns the edge list of the condensation (the DAG whose
// nodes are components), using component indices of res, with duplicates
// removed.  Used by the examples (reachability, topological sort).
func (g *Graph) CondensationEdges(res SCCResult) []record.Edge {
	seen := map[record.Edge]struct{}{}
	var out []record.Edge
	for u, ns := range g.adj {
		cu := res.Comp[u]
		for _, v := range ns {
			cv := res.Comp[v]
			if cu == cv {
				continue
			}
			e := record.Edge{U: uint32(cu), V: uint32(cv)}
			if _, ok := seen[e]; ok {
				continue
			}
			seen[e] = struct{}{}
			out = append(out, e)
		}
	}
	// Field by field rather than by record.EdgeBySource's key: memgraph is
	// the in-memory oracle the external operators are checked against.
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// SameSCCPartition reports whether two label sets describe the same partition
// of the same node set.  Label identifiers do not need to match, only the
// grouping.  It is the equivalence check used throughout the test suites.
func SameSCCPartition(a, b []record.Label) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[record.NodeID]record.SCCID, len(a))
	bm := make(map[record.NodeID]record.SCCID, len(b))
	for _, l := range a {
		am[l.Node] = l.SCC
	}
	for _, l := range b {
		bm[l.Node] = l.SCC
	}
	if len(am) != len(bm) {
		return false
	}
	// For every pair mapping a-label -> b-label the correspondence must be a
	// bijection.
	fwd := map[record.SCCID]record.SCCID{}
	rev := map[record.SCCID]record.SCCID{}
	for node, as := range am {
		bs, ok := bm[node]
		if !ok {
			return false
		}
		if prev, ok := fwd[as]; ok && prev != bs {
			return false
		}
		if prev, ok := rev[bs]; ok && prev != as {
			return false
		}
		fwd[as] = bs
		rev[bs] = as
	}
	return true
}
