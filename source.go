package extscc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"extscc/internal/blockio"
	"extscc/internal/edgefile"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
)

// Source supplies the input graph of an Engine run.  A Source stages the
// graph as on-disk files in the engine's run directory; every file created
// under SourceEnv.Dir is removed when the run's Result is closed (or
// immediately, if the run fails).
//
// The package ships sources for the common inputs — FileSource,
// SliceSource, TextSource, PreparedSource and GeneratorSource — and the
// interface is open: any type that can stage an edge file can feed the
// engine (a network fetcher, a column-store export, a sharded reader, ...).
type Source interface {
	// Open materialises the graph beneath env.Dir and describes its files.
	// Open must respect ctx and return promptly once it is cancelled.
	Open(ctx context.Context, env SourceEnv) (GraphFiles, error)
}

// SourceEnv is the staging environment the engine hands to Source.Open.
type SourceEnv struct {
	// Dir is the engine's run directory.  Files the source creates belong
	// here; they are removed together with the run's other intermediates.
	Dir string

	cfg iomodel.Config
}

// GraphFiles describes an opened on-disk graph in the engine's format.
type GraphFiles struct {
	// EdgePath is the edge file: a sequence of 8-byte little-endian
	// (u uint32, v uint32) records, or the framed compressed equivalent
	// written under WithCodec(CodecVarint) — readers auto-detect which.
	// Required.
	EdgePath string
	// NodePath is the node file: sorted, deduplicated 4-byte little-endian
	// node ids (or their framed equivalent).  When empty, the engine derives
	// the node set from the edge endpoints plus ExtraNodes.
	NodePath string
	// ExtraNodes lists nodes with no incident edges (isolated nodes that
	// still need an SCC label).  Only consulted when NodePath is empty.
	ExtraNodes []NodeID
	// NumNodes and NumEdges are the graph sizes.  Zero values are counted
	// from the files by the engine.
	NumNodes int64
	NumEdges int64
}

// ---------------------------------------------------------------------------
// Built-in sources
// ---------------------------------------------------------------------------

type fileSource struct {
	path  string
	extra []NodeID
}

// FileSource reads an existing on-disk edge file of 8-byte (u, v) records —
// the format written by cmd/sccgen and Result.ExportLabels' sibling tools.
// The file is not copied; the node set is derived from the edge endpoints
// plus extraNodes.
func FileSource(path string, extraNodes ...NodeID) Source {
	return fileSource{path: path, extra: extraNodes}
}

func (s fileSource) Open(ctx context.Context, env SourceEnv) (GraphFiles, error) {
	return GraphFiles{EdgePath: s.path, ExtraNodes: s.extra}, nil
}

type sliceSource struct {
	edges []Edge
	extra []NodeID
}

// SliceSource feeds an in-memory edge list (plus optional isolated nodes).
// The edges are spilled to a staging file, so the computation's memory
// footprint stays within the configured budget even when the slice itself is
// large.
func SliceSource(edges []Edge, extraNodes ...NodeID) Source {
	return sliceSource{edges: edges, extra: extraNodes}
}

func (s sliceSource) Open(ctx context.Context, env SourceEnv) (GraphFiles, error) {
	if err := ctx.Err(); err != nil {
		return GraphFiles{}, err
	}
	g, err := edgefile.WriteGraph(env.Dir, s.edges, s.extra, env.cfg)
	if err != nil {
		return GraphFiles{}, fmt.Errorf("extscc: materialise graph: %w", err)
	}
	return GraphFiles{
		EdgePath: g.EdgePath,
		NodePath: g.NodePath,
		NumNodes: g.NumNodes,
		NumEdges: g.NumEdges,
	}, nil
}

type textSource struct {
	r io.Reader
}

// TextSource parses a whitespace-separated text edge list ("u v" per line,
// blank lines and lines starting with '#' or '%' ignored — the format of the
// SNAP and WebGraph dataset dumps) and stages it as a binary edge file.
func TextSource(r io.Reader) Source {
	return textSource{r: r}
}

func (s textSource) Open(ctx context.Context, env SourceEnv) (GraphFiles, error) {
	path := blockio.TempFile(env.Dir, "text-edges", env.cfg.Stats)
	w, err := recio.NewWriter(path, record.EdgeCodec{}, env.cfg)
	if err != nil {
		return GraphFiles{}, err
	}
	sc := bufio.NewScanner(s.r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if line%8192 == 0 {
			if err := ctx.Err(); err != nil {
				w.Close()
				return GraphFiles{}, err
			}
		}
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			w.Close()
			return GraphFiles{}, fmt.Errorf("extscc: text edge list line %d: want \"u v\", got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			w.Close()
			return GraphFiles{}, fmt.Errorf("extscc: text edge list line %d: %w", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			w.Close()
			return GraphFiles{}, fmt.Errorf("extscc: text edge list line %d: %w", line, err)
		}
		if err := w.Write(Edge{U: NodeID(u), V: NodeID(v)}); err != nil {
			w.Close()
			return GraphFiles{}, err
		}
	}
	if err := sc.Err(); err != nil {
		w.Close()
		return GraphFiles{}, fmt.Errorf("extscc: read text edge list: %w", err)
	}
	if err := w.Close(); err != nil {
		return GraphFiles{}, err
	}
	return GraphFiles{EdgePath: path, NumEdges: w.Count()}, nil
}

type preparedSource struct {
	g GraphFiles
}

// PreparedSource wraps an already-staged pair of edge and node files, for
// callers (benchmark harnesses, pipelines) that run several algorithms over
// the same materialised graph without re-deriving the node set each time.
// The files live outside the run directory and are not removed by the
// engine.
func PreparedSource(edgePath, nodePath string, numNodes, numEdges int64) Source {
	return preparedSource{g: GraphFiles{
		EdgePath: edgePath,
		NodePath: nodePath,
		NumNodes: numNodes,
		NumEdges: numEdges,
	}}
}

func (s preparedSource) Open(ctx context.Context, env SourceEnv) (GraphFiles, error) {
	return s.g, nil
}

// GeneratorSpec selects one of the built-in synthetic workloads — the
// paper's Table I dataset families, the web-graph stand-in, and simple
// structured graphs.
type GeneratorSpec struct {
	// Kind is the workload: "massive", "large", "small" (the Table I
	// families), "web", "random", "cycle", "path", "dag" or "paper" (the
	// running example of the paper, Fig. 1).
	Kind string
	// Scale divides the paper's Table I sizes (0 = 1000).  Only the Table I
	// families use it.
	Scale int
	// Nodes overrides the number of nodes (0 = preset default).  A random
	// or dag graph needs at least 2.
	Nodes int
	// Degree overrides the average degree (0 = preset default).
	Degree int
	// Seed seeds the generator.
	Seed int64
	// Retries is the transient-failure retry budget per storage operation
	// while writing the file (0 = fail fast; see WithRetry).
	Retries int
}

type generatorSource struct {
	spec GeneratorSpec
}

// GeneratorSource streams a synthetic workload straight to a staging edge
// file, never materialising the graph in memory for the streaming families.
func GeneratorSource(spec GeneratorSpec) Source {
	return generatorSource{spec: spec}
}

func (s generatorSource) Open(ctx context.Context, env SourceEnv) (GraphFiles, error) {
	if err := ctx.Err(); err != nil {
		return GraphFiles{}, err
	}
	path := blockio.TempFile(env.Dir, "gen-edges", env.cfg.Stats)
	numEdges, nodes, err := s.spec.writeEdgeFile(path, env.cfg)
	if err != nil {
		return GraphFiles{}, err
	}
	return GraphFiles{EdgePath: path, ExtraNodes: nodes, NumEdges: numEdges}, nil
}

// WriteEdgeFile materialises the workload as an edge file at path on the
// process-default storage backend and returns the number of edges written and
// the full node set (including isolated nodes).  It is the single dispatch
// over the generator kinds, shared by GeneratorSource and cmd/sccgen.
func (s GeneratorSpec) WriteEdgeFile(path string) (int64, []NodeID, error) {
	return s.WriteEdgeFileOn(nil, path)
}

// WriteEdgeFileOn is WriteEdgeFile with an explicit storage backend (nil =
// the process default), so tools can generate straight into any Storage —
// cmd/sccgen's -storage flag stages through the in-memory backend this way.
func (s GeneratorSpec) WriteEdgeFileOn(backend Storage, path string) (int64, []NodeID, error) {
	cfg, err := iomodel.Config{
		BlockSize: iomodel.DefaultBlockSize,
		Memory:    iomodel.DefaultMemory,
		Retries:   s.Retries,
		Storage:   backend,
	}.Validate()
	if err != nil {
		return 0, nil, err
	}
	return s.writeEdgeFile(path, cfg)
}

// validate rejects, before any file is created, a spec no generator can
// honour: a negative size, and a random or dag graph of one node (random
// draws edges until one is not a self-loop, and dag needs two nodes to
// order).
func (s GeneratorSpec) validate() error {
	for _, f := range []struct {
		name  string
		value int
	}{{"Nodes", s.Nodes}, {"Degree", s.Degree}, {"Scale", s.Scale}} {
		if f.value < 0 {
			return fmt.Errorf("extscc: generator kind %q: %s %d is negative", s.Kind, f.name, f.value)
		}
	}
	if (s.Kind == "random" || s.Kind == "dag") && s.Nodes == 1 {
		return fmt.Errorf("extscc: generator kind %q needs at least 2 nodes, got %d", s.Kind, s.Nodes)
	}
	return nil
}

func (s GeneratorSpec) writeEdgeFile(path string, cfg iomodel.Config) (int64, []NodeID, error) {
	if err := s.validate(); err != nil {
		return 0, nil, err
	}
	scale := s.Scale
	if scale <= 0 {
		scale = 1000
	}
	writeParams := func(write func(string, iomodel.Config) (int64, error), all func() []NodeID) (int64, []NodeID, error) {
		n, err := write(path, cfg)
		if err != nil {
			return 0, nil, err
		}
		return n, all(), nil
	}

	switch s.Kind {
	case "massive", "large", "small":
		var p graphgen.SyntheticParams
		switch s.Kind {
		case "massive":
			p = graphgen.MassiveSCCParams(scale)
		case "large":
			p = graphgen.LargeSCCParams(scale)
		case "small":
			p = graphgen.SmallSCCParams(scale)
		}
		if s.Nodes > 0 {
			p.NumNodes = s.Nodes
		}
		if s.Degree > 0 {
			p.AvgDegree = s.Degree
		}
		p.Seed = s.Seed
		return writeParams(p.WriteTo, p.AllNodes)
	case "web":
		p := graphgen.DefaultWebGraphParams()
		if s.Nodes > 0 {
			p.NumNodes = s.Nodes
		}
		if s.Degree > 0 {
			p.AvgDegree = s.Degree
		}
		p.Seed = s.Seed
		return writeParams(p.WriteTo, p.AllNodes)
	case "random", "cycle", "path", "dag", "paper":
		n := s.Nodes
		if n == 0 {
			n = 10000
		}
		var edges []Edge
		nodes := make([]NodeID, n)
		for i := range nodes {
			nodes[i] = NodeID(i)
		}
		switch s.Kind {
		case "random":
			m := n * 4
			if s.Degree > 0 {
				m = n * s.Degree
			}
			edges = graphgen.Random(n, m, s.Seed)
		case "cycle":
			edges = graphgen.Cycle(n)
		case "path":
			edges = graphgen.Path(n)
		case "dag":
			m := n * 3
			if s.Degree > 0 {
				m = n * s.Degree
			}
			edges = graphgen.DAGLayered(n, m, s.Seed)
		case "paper":
			edges, nodes = graphgen.PaperExample()
		}
		if err := recio.WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
			return 0, nil, err
		}
		return int64(len(edges)), nodes, nil
	default:
		return 0, nil, fmt.Errorf("extscc: unknown generator kind %q", s.Kind)
	}
}
