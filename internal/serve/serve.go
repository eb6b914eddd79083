// Package serve turns one SCC computation into a long-lived query service:
// ingest a graph through any registered Source, run the engine once, and then
// answer an unbounded stream of membership, same-component, and reachability
// queries over HTTP without ever recomputing.
//
// Startup materialises three artifacts on the configured storage backend:
// the engine's node-sorted label file (the source of truth for membership),
// the condensation DAG built by internal/condense from the staged edge file,
// and a 2-hop reachability index over that DAG.  All three constructions run
// through the external-sort substrate, so the cost of becoming servable is
// I/O-accounted exactly like the SCC computation itself and reported by the
// /stats endpoint.
//
// The serving path is built for concurrency: point lookups are fronted by an
// LRU of hot node labels, and the misses are coalesced group-commit style —
// the requests that queue while one sweep of the label file runs form the
// next, with no timer in front of a lone request.  Each looked-up node costs
// one key probe through the label file that the Result keeps open from the
// first lookup until Close: a frame-index footer search plus at most one
// frame decode.  Reachability queries reduce to two label lookups plus an
// in-memory intersection of 2-hop label sets.  Shutdown is graceful:
// in-flight queries drain, then every artifact — the engine run directory
// and the serve directory holding the DAG and index — is removed from the
// backend.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"extscc"
	"extscc/internal/blockio"
	"extscc/internal/condense"
	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/storage"
)

// Options configures a Server.  The engine-shaped fields mirror the engine's
// functional options; zero values select the same defaults extscc.New would.
type Options struct {
	// Source is the graph to ingest (required).
	Source extscc.Source
	// Algorithm is the registered algorithm name ("" = the engine default).
	Algorithm string
	// Memory, BlockSize, Retries and Codec are passed through to the
	// engine and reused for the DAG and index builds.
	Memory    int64
	BlockSize int
	Retries   int
	Codec     string
	// Storage is the backend everything is materialised on: the in-memory
	// backend serves hot with zero disk I/O, the OS backend serves
	// labellings larger than RAM (nil = the process default, which honours
	// EXTSCC_STORAGE).
	Storage extscc.Storage
	// TempDir is the parent for the run and serve directories ("" = the
	// system temp directory).
	TempDir string

	// Addr is the HTTP listen address for Listen ("" = "127.0.0.1:0").
	Addr string
	// MaxBatch caps the nodes resolved by a single sweep of the label file
	// (0 = 256).  A sweep starts as soon as the previous one ends and takes
	// the lookups queued meanwhile, so a lone lookup never waits.
	MaxBatch int
	// CacheSize is the capacity of the hot-label LRU (0 = 4096; negative
	// disables the cache).
	CacheSize int
	// DrainTimeout bounds the graceful-shutdown drain of in-flight queries
	// (0 = 10s).
	DrainTimeout time.Duration
	// EnablePprof mounts net/http/pprof's profiling endpoints under
	// /debug/pprof/ on the query mux.  Off by default: the endpoints expose
	// runtime internals and should only be reachable on trusted listeners.
	EnablePprof bool
}

func (o Options) maxBatch() int {
	if o.MaxBatch <= 0 {
		return 256
	}
	return o.MaxBatch
}

func (o Options) cacheSize() int {
	switch {
	case o.CacheSize == 0:
		return 4096
	case o.CacheSize < 0:
		return 0
	}
	return o.CacheSize
}

func (o Options) drainTimeout() time.Duration {
	if o.DrainTimeout <= 0 {
		return 10 * time.Second
	}
	return o.DrainTimeout
}

// Server is a query server over one ingested graph.  Build one with New,
// expose it via Handler (for an existing HTTP server) or Listen/Serve, and
// release every on-backend artifact with Close.
type Server struct {
	opts    Options
	backend extscc.Storage
	res     *extscc.Result
	index   *condense.Index
	store   *labelStore
	cache   *lruCache
	mux     *http.ServeMux

	dir         string // serve directory: DAG edge file + hop-label files
	dagEdges    int64
	dagNodes    int
	buildIO     iomodel.Snapshot // I/O cost of DAG + index construction
	buildPhases []prof.PhaseStats
	started     time.Time

	queries atomic.Int64

	ln     net.Listener
	lnMu   sync.Mutex
	closed atomic.Bool
}

// New ingests opts.Source, computes its SCCs, materialises the condensation
// DAG and the 2-hop reachability index on the configured backend, and
// returns a Server ready to answer queries.  The context cancels ingestion
// and index construction; a cancelled New leaves nothing behind.
func New(ctx context.Context, opts Options) (*Server, error) {
	if opts.Source == nil {
		return nil, errors.New("serve: Options.Source is required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	backend := opts.Storage
	if backend == nil {
		backend = storage.Default()
	}
	tempDir := opts.TempDir
	if tempDir == "" && backend.Name() == "os" {
		tempDir = os.TempDir()
	}

	engOpts := []extscc.Option{
		extscc.WithMemory(opts.Memory),
		extscc.WithBlockSize(opts.BlockSize),
		extscc.WithRetry(opts.Retries),
		extscc.WithCodec(opts.Codec),
		extscc.WithStorage(backend),
		extscc.WithTempDir(tempDir),
	}
	if opts.Algorithm != "" {
		engOpts = append(engOpts, extscc.WithAlgorithm(opts.Algorithm))
	}
	eng, err := extscc.New(engOpts...)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(ctx, opts.Source)
	if err != nil {
		return nil, fmt.Errorf("serve: ingest: %w", err)
	}

	// The serve directory holds everything built on top of the labelling:
	// the DAG edge file and the materialised hop labels.  One RemoveAll on
	// Close reclaims it, mirroring the engine's run-directory guarantee.
	dir, err := backend.MkdirTemp(tempDir, "sccserve-")
	if err != nil {
		res.Close()
		return nil, fmt.Errorf("serve: create serve directory: %w", err)
	}
	s := &Server{opts: opts, backend: backend, res: res, dir: dir}
	fail := func(err error) (*Server, error) {
		res.Close()
		backend.RemoveAll(dir)
		return nil, err
	}

	cfg, err := iomodel.Config{
		BlockSize: opts.BlockSize,
		Memory:    opts.Memory,
		Retries:   opts.Retries,
		Codec:     opts.Codec,
		Storage:   backend,
		TempDir:   dir,
		Stats:     &iomodel.Stats{},
		Prof:      prof.New(),
	}.Validate()
	if err != nil {
		return fail(err)
	}

	sp := cfg.Prof.Start("index-build")
	dagPath := blockio.TempFile(dir, "dag-edges", cfg.Stats)
	s.dagEdges, err = condense.Build(ctx, res.EdgePath, res.LabelPath, dagPath, cfg)
	if err != nil {
		sp.End()
		return fail(fmt.Errorf("serve: build condensation DAG: %w", err))
	}
	dag, err := condense.Load(dagPath, cfg)
	if err != nil {
		sp.End()
		return fail(fmt.Errorf("serve: load condensation DAG: %w", err))
	}
	s.dagNodes = len(dag.Nodes())
	s.index, err = condense.BuildIndex(ctx, dag, dir, cfg)
	sp.End()
	if err != nil {
		return fail(fmt.Errorf("serve: build reachability index: %w", err))
	}
	s.buildIO = cfg.Stats.Snapshot()
	s.buildPhases = cfg.Prof.Snapshot()

	s.cache = newLRU(opts.cacheSize())
	s.store = newLabelStore(res.LookupLabels, opts.maxBatch())
	s.mux = s.routes()
	s.started = time.Now()
	return s, nil
}

// Handler returns the server's HTTP handler (for mounting under an existing
// server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds the configured address and returns the bound address, so
// callers using Addr ":0" learn the chosen port before Serve starts.
func (s *Server) Listen() (net.Addr, error) {
	addr := s.opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	return ln.Addr(), nil
}

// Serve runs the HTTP server on the listener bound by Listen until ctx is
// cancelled, then shuts down gracefully: the listener stops accepting,
// in-flight queries drain (bounded by Options.DrainTimeout), and Close
// removes every on-backend artifact.  It returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context) error {
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
		s.lnMu.Lock()
		ln = s.ln
		s.lnMu.Unlock()
	}
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.drainTimeout())
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	<-errc // http.ErrServerClosed
	if err := s.Close(); err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	return shutdownErr
}

// Close releases everything the server materialised: the lookup dispatcher
// stops, the label file its lookups hold open is closed, and the engine run
// directory (labels, staged graph) and the serve directory (DAG, hop labels)
// are removed from the backend.  Close is idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.store != nil {
		s.store.close()
	}
	err := s.res.Close()
	if rerr := s.backend.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// labelsOf resolves the SCC labels of the given nodes, consulting the LRU
// first and coalescing the misses through the dispatcher.  The returned map
// has an entry per node that exists in the labelling.
func (s *Server) labelsOf(nodes []extscc.NodeID) (map[extscc.NodeID]uint32, error) {
	out := make(map[extscc.NodeID]uint32, len(nodes))
	var misses []extscc.NodeID
	for _, n := range nodes {
		if scc, known, hit := s.cache.get(n); hit {
			if known {
				out[n] = scc
			}
		} else {
			misses = append(misses, n)
		}
	}
	if len(misses) == 0 {
		return out, nil
	}
	resolved, err := s.store.lookup(misses)
	if err != nil {
		return nil, err
	}
	for _, n := range misses {
		scc, known := resolved[n]
		s.cache.add(n, scc, known)
		if known {
			out[n] = scc
		}
	}
	return out, nil
}
