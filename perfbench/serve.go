package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"extscc"
	"extscc/internal/blockio"
	"extscc/internal/condense"
	"extscc/internal/iomodel"
	"extscc/internal/prof"
	"extscc/internal/record"
	"extscc/internal/serve"
	"extscc/internal/storage"
)

type queryKind byte

const (
	kindSCC queryKind = iota
	kindSame
	kindReach
)

type query struct {
	kind queryKind
	u, v record.NodeID
}

func (q query) path() string {
	switch q.kind {
	case kindSame:
		return fmt.Sprintf("/same/%d/%d", q.u, q.v)
	case kindReach:
		return fmt.Sprintf("/reach/%d/%d", q.u, q.v)
	}
	return fmt.Sprintf("/scc/%d", q.u)
}

// makeQueries draws the serve-large mix from rng: 50% /scc, 30% /same and
// 20% /reach, node ids Zipf-distributed (see queryIDs).
func makeQueries(rng *rand.Rand, o *oracle, n int) []query {
	ids := queryIDs(rng, o, 2*n)
	qs := make([]query, n)
	for i := range qs {
		q := query{u: ids[2*i], v: ids[2*i+1]}
		switch p := rng.Intn(10); {
		case p < 5:
			q.kind = kindSCC
		case p < 8:
			q.kind = kindSame
		default:
			q.kind = kindReach
		}
		qs[i] = q
	}
	return qs
}

type reply struct {
	status int
	body   []byte
	err    error
}

// checkReply verifies one HTTP answer against the oracle: 404 exactly for
// ids absent from the graph, labels consistent with the partition, and the
// /same and /reach answers equal to the oracle's.
func (o *oracle) checkReply(c *partitionCheck, q query, rp reply) error {
	if rp.err != nil {
		return fmt.Errorf("%s: %w", q.path(), rp.err)
	}
	cu, cv := o.compOf(q.u), o.compOf(q.v)
	if cu < 0 || (q.kind != kindSCC && cv < 0) {
		if rp.status != http.StatusNotFound {
			return fmt.Errorf("%s: status %d for an id absent from the graph", q.path(), rp.status)
		}
		return nil
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", q.path(), rp.status, rp.body)
	}
	if q.kind == kindSCC {
		var body struct {
			Node record.NodeID `json:"node"`
			SCC  uint32        `json:"scc"`
		}
		if err := json.Unmarshal(rp.body, &body); err != nil {
			return fmt.Errorf("%s: %w", q.path(), err)
		}
		if body.Node != q.u {
			return fmt.Errorf("%s: answered for node %d", q.path(), body.Node)
		}
		return c.label(q.u, body.SCC)
	}
	var body struct {
		SCCU   uint32 `json:"scc_u"`
		SCCV   uint32 `json:"scc_v"`
		Answer bool   `json:"answer"`
	}
	if err := json.Unmarshal(rp.body, &body); err != nil {
		return fmt.Errorf("%s: %w", q.path(), err)
	}
	if err := errors.Join(c.label(q.u, body.SCCU), c.label(q.v, body.SCCV)); err != nil {
		return fmt.Errorf("%s: %w", q.path(), err)
	}
	want := cu == cv
	if q.kind == kindReach {
		want = o.reaches(cu, cv)
	}
	if body.Answer != want {
		return fmt.Errorf("%s: answered %v, oracle says %v", q.path(), body.Answer, want)
	}
	return nil
}

// client is the closed-loop load generator: each of its workers sends a
// request only after the previous reply arrived, over its own keep-alive
// connection.
type client struct {
	base    string
	http    *http.Client
	workers int
}

func newClient(base string, workers int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, workers: workers}
}

func (c *client) get(path string) reply {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: body, err: err}
}

// loop has every worker send n queries, worker w taking qs[(w*n+i) mod len]
// starting at offset, and returns the replies and latencies in query order.
func (c *client) loop(qs []query, offset, n int) ([]query, []reply, []float64) {
	sent := make([]query, c.workers*n)
	replies := make([]reply, c.workers*n)
	lat := make([]float64, c.workers*n)
	var wg sync.WaitGroup
	for w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				k := w*n + i
				q := qs[(offset+k)%len(qs)]
				t0 := time.Now()
				rp := c.get(q.path())
				lat[k] = float64(time.Since(t0)) / float64(time.Millisecond)
				sent[k], replies[k] = q, rp
			}
		}()
	}
	wg.Wait()
	return sent, replies, lat
}

// serveStats is the part of the /stats payload the benchmark reads.
type serveStats struct {
	Engine extscc.Stats `json:"engine"`
	Build  struct {
		ReadIOs      int64 `json:"read_ios"`
		WriteIOs     int64 `json:"write_ios"`
		BytesRead    int64 `json:"bytes_read"`
		BytesWritten int64 `json:"bytes_written"`
		FilesCreated int64 `json:"files_created"`
	} `json:"index_build"`
	Graph struct {
		DAGNodes int `json:"dag_nodes"`
	} `json:"graph"`
	Index   condense.IndexStats `json:"index"`
	Serving struct {
		Batches        int64 `json:"batches"`
		BatchedLookups int64 `json:"batched_lookups"`
		CacheHits      int64 `json:"cache_hits"`
		CacheMisses    int64 `json:"cache_misses"`
	} `json:"serving"`
}

func (c *client) stats() (serveStats, error) {
	var st serveStats
	rp := c.get("/stats")
	if rp.err != nil {
		return st, rp.err
	}
	if rp.status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", rp.status)
	}
	return st, json.Unmarshal(rp.body, &st)
}

// serveSample is one untraced server lifetime, the server in a child
// process: serve.New until the first query is answered, a warm-up, timed
// sessions of queries, and shutdown.
type serveSample struct {
	Setup float64 `json:"setup_s"`
	RSS   float64 `json:"peak_rss_mb"`
	// SetupNoise is the host's steal over the set-up, Noise over the whole
	// lifetime.
	SetupNoise noise `json:"setup_noise"`
	Noise      noise `json:"noise"`
	// Slowdown is the speed probe's, run before serve.New.
	Slowdown float64 `json:"slowdown"`
	Queries  int     `json:"queries"`
	Failed   int     `json:"failed_queries"`
	// Stats is /stats after the last session; Hits, Misses, Batches and
	// Batched are the serving counters' growth over the sessions.
	Stats   serveStats `json:"stats"`
	Hits    int64      `json:"lru_hits"`
	Misses  int64      `json:"lru_misses"`
	Batches int64      `json:"batches"`
	Batched int64      `json:"batched_lookups"`

	Sessions []session `json:"sessions"`

	latMs    []float64
	firstErr error
}

func (s *serveSample) totalIOs() int64 {
	return s.Stats.Engine.TotalIOs + s.Stats.Build.ReadIOs + s.Stats.Build.WriteIOs
}

// serveRequest is what the parent sends a serve child.
type serveRequest struct {
	Input string `json:"input"`
	Tmp   string `json:"tmp"`
}

// serveReady is a serve child's first reply: its listening address, the
// wall-clock time at which it called serve.New, and the slowdown of the
// speed probe it ran before.
type serveReady struct {
	Addr     string  `json:"addr"`
	Start    int64   `json:"start_unix_ns"`
	Slowdown float64 `json:"slowdown"`
}

// A serve child answers the command "cpu" with its CPU time so far in
// seconds, and "stop" with a serveExit once it has shut down.
type serveExit struct {
	RSS float64 `json:"peak_rss_mb"` // over the server's lifetime
}

// serveSample runs one server lifetime over the workload's input.  Query
// failures are counted in the sample; an error means the lifetime itself
// failed.
func (r *runner) serveSample(ctx context.Context, qs []query) (s serveSample, err error) {
	spec := r.w.serve
	nm := startNoise()
	ch, err := startChild(ctx, "serve", serveRequest{Input: r.in.path, Tmp: r.tmp})
	if err != nil {
		return s, err
	}
	defer func() {
		if werr := ch.wait(); werr != nil {
			err = werr
		}
		if cerr := r.checkClean(); err == nil {
			err = cerr
		}
	}()
	var ready serveReady
	if err := ch.recv(&ready); err != nil {
		return s, err
	}
	s.Slowdown = ready.Slowdown
	cl := newClient("http://"+ready.Addr, spec.clients)
	defer cl.http.CloseIdleConnections()
	serverCPU := func() (cpu float64, err error) {
		if err = ch.send("cpu"); err == nil {
			err = ch.recv(&cpu)
		}
		return cpu, err
	}

	check := r.in.or.newCheck()
	verify := func(sent []query, replies []reply) {
		for i, rp := range replies {
			s.Queries++
			if err := r.in.or.checkReply(check, sent[i], rp); err != nil {
				s.Failed++
				if s.firstErr == nil {
					s.firstErr = err
				}
			}
		}
	}
	first := cl.get(qs[0].path())
	s.Setup = float64(time.Now().UnixNano()-ready.Start) / 1e9
	s.SetupNoise = nm.stop()
	verify(qs[:1], []reply{first})

	sent, replies, _ := cl.loop(qs, 1, spec.warmup)
	verify(sent, replies)
	before, err := cl.stats()
	if err != nil {
		return s, err
	}
	for i := range spec.sessions {
		runtime.GC()
		sm := startNoise()
		cpu0, err := serverCPU()
		if err != nil {
			return s, err
		}
		t1 := time.Now()
		sent, replies, lat := cl.loop(qs, 1+spec.clients*(spec.warmup+i*spec.queries), spec.queries)
		wall := time.Since(t1).Seconds()
		cpu1, err := serverCPU()
		if err != nil {
			return s, err
		}
		s.Sessions = append(s.Sessions, newSession(lat, wall, cpu1-cpu0, sm.stop()))
		s.latMs = append(s.latMs, lat...)
		verify(sent, replies)
	}
	if s.Stats, err = cl.stats(); err != nil {
		return s, err
	}
	s.Noise = nm.stop()
	cl.http.CloseIdleConnections()
	var exit serveExit
	if err := ch.send("stop"); err != nil {
		return s, err
	}
	if err := ch.recv(&exit); err != nil {
		return s, err
	}
	s.RSS = exit.RSS
	after := s.Stats.Serving
	s.Hits = after.CacheHits - before.Serving.CacheHits
	s.Misses = after.CacheMisses - before.Serving.CacheMisses
	s.Batches = after.Batches - before.Serving.Batches
	s.Batched = after.BatchedLookups - before.Serving.BatchedLookups
	return s, nil
}

// childServe is a serve child: it runs serve.New's handler with every
// option at its default on a loopback listener until the parent says stop,
// then shuts down and closes the server.
func childServe(ctx context.Context, in *bufio.Reader, out io.Writer) error {
	var req serveRequest
	if err := readLine(in, &req); err != nil {
		return err
	}
	slowdown := probeSlowdown()
	resetPeakRSS() // the peak resident set covers the server, not the probe
	start := time.Now()
	srv, err := serve.New(ctx, serve.Options{Source: extscc.FileSource(req.Input), Storage: extscc.OSStorage(), TempDir: req.Tmp})
	if err != nil {
		return fmt.Errorf("serve.New: %w", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	err = writeLine(out, serveReady{Addr: ln.Addr().String(), Start: start.UnixNano(), Slowdown: slowdown})
	for err == nil {
		var cmd string
		if err = readLine(in, &cmd); err != nil || cmd == "stop" {
			break
		}
		err = writeLine(out, processCPU().Seconds())
	}
	if serr := hs.Shutdown(ctx); err == nil || err == io.ErrUnexpectedEOF {
		err = serr
	}
	<-served
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return writeLine(out, serveExit{RSS: peakRSSMiB()})
}

// serveTrace is the traced set-up of serve-large: the steps serve.New takes,
// called directly and timed, then timed lookups and reachability probes.
type serveTrace struct {
	spans      []span
	ingest     extscc.Stats
	ingestWall time.Duration
	setupWall  time.Duration
	setupNoise noise // the host's steal over setupWall
	buildIO    iomodel.Snapshot
	dagNodes   int
	entries    int64
	lookupMs   float64
	reachUs    float64
	storage    *timedBackend
}

// traceServe replays serve.New's set-up with the storage timing wrapper and
// spans around each step, checks it against an untraced lifetime's /stats,
// then times Result.LookupLabels in batches of batchSize over the query ids
// and Index.Reaches over the cross-component /reach pairs.
func (r *runner) traceServe(ctx context.Context, qs []query, batchSize int, ref serveStats) (*serveTrace, error) {
	out := &serveTrace{storage: newTimedBackend(storage.OS())}
	backend := out.storage
	cfg, err := iomodel.Config{Storage: backend, Stats: &iomodel.Stats{}}.Validate()
	if err != nil {
		return nil, err
	}
	tr := newTracer(cfg.Stats)
	nm := startNoise()
	root := tr.begin("serve.setup", noParent)

	// The engine options serve.New passes for zero-valued serve.Options.
	eng, err := extscc.New(
		extscc.WithMemory(0), extscc.WithBlockSize(0), extscc.WithWorkers(0), extscc.WithRetry(0),
		extscc.WithCodec(""), extscc.WithStorage(backend), extscc.WithTempDir(r.tmp),
	)
	if err != nil {
		return nil, err
	}
	ing := tr.begin("serve.ingest", root)
	res, err := eng.Run(ctx, extscc.FileSource(r.in.path))
	tr.end(ing)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer res.Close()
	out.ingest, out.ingestWall = res.Stats, tr.spans[ing].dur()
	tr.spans[ing].IO = statsSnapshot(res.Stats)
	var phases []prof.PhaseStats
	for _, ph := range res.Stats.Phases {
		phases = append(phases, prof.PhaseStats{Name: ph.Name, Count: ph.Count, Wall: ph.Wall})
	}
	tr.addPhases(ing, phases)

	dir, err := backend.MkdirTemp(r.tmp, "sccserve-")
	if err != nil {
		return nil, err
	}
	defer backend.RemoveAll(dir)
	cfg.TempDir = dir
	dagPath := blockio.TempFile(dir, "dag-edges", cfg.Stats)
	err = tr.call("condense.dag_build", root, cfg, func(cfg iomodel.Config) error {
		_, err := condense.Build(ctx, res.EdgePath, res.LabelPath, dagPath, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var dag *condense.DAG
	err = tr.call("condense.load", root, cfg, func(cfg iomodel.Config) (err error) {
		dag, err = condense.Load(dagPath, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var ix *condense.Index
	err = tr.call("condense.index_build", root, cfg, func(cfg iomodel.Config) (err error) {
		ix, err = condense.BuildIndex(ctx, dag, dir, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.end(root)
	out.setupWall, out.setupNoise = tr.spans[root].dur(), nm.stop()
	out.buildIO = cfg.Stats.Snapshot()
	out.dagNodes = len(dag.Nodes())
	out.entries = ix.Stats().Entries

	// Transparency: the traced set-up must label and account exactly like
	// the untraced server.
	labels, err := res.Labels()
	if err != nil {
		return nil, err
	}
	if err := r.in.or.checkLabels(labels); err != nil {
		return nil, fmt.Errorf("traced ingest: wrong partition: %w", err)
	}
	if err := sameIOStats(ref.Engine, statsSnapshot(res.Stats)); err != nil {
		return nil, fmt.Errorf("traced ingest differs from serve.New: %w", err)
	}
	b := ref.Build
	if got := [5]int64{out.buildIO.ReadBlocks, out.buildIO.WriteBlocks, out.buildIO.BytesRead, out.buildIO.BytesWritten, out.buildIO.FilesCreated}; got != [5]int64{b.ReadIOs, b.WriteIOs, b.BytesRead, b.BytesWritten, b.FilesCreated} {
		return nil, fmt.Errorf("traced index build I/O %v differs from serve.New's %+v", got, b)
	}
	if out.dagNodes != ref.Graph.DAGNodes || out.entries != ref.Index.Entries {
		return nil, fmt.Errorf("traced DAG/index (%d nodes, %d entries) differs from serve.New's (%d, %d)", out.dagNodes, out.entries, ref.Graph.DAGNodes, ref.Index.Entries)
	}

	// Lookups, batched as the server's dispatcher batched them; the answers
	// are checked after the timing.
	var batches [][]record.NodeID
	for i := 0; i < len(qs); i += batchSize {
		var batch []record.NodeID
		for _, q := range qs[i:min(i+batchSize, len(qs))] {
			batch = append(batch, q.u)
		}
		batches = append(batches, batch)
	}
	answers := make([]map[record.NodeID]uint32, len(batches))
	lk := tr.begin("extscc.lookup", noParent)
	for i, batch := range batches {
		if answers[i], err = res.LookupLabels(batch); err != nil {
			return nil, err
		}
	}
	tr.end(lk)
	out.lookupMs = float64(tr.spans[lk].dur()) / float64(time.Millisecond) / float64(len(batches))
	check := r.in.or.newCheck()
	for i, batch := range batches {
		for _, n := range batch {
			scc, ok := answers[i][n]
			if ok != (r.in.or.compOf(n) >= 0) {
				return nil, fmt.Errorf("LookupLabels: node %d present=%v, oracle disagrees", n, ok)
			}
			if ok {
				if err := check.label(n, scc); err != nil {
					return nil, fmt.Errorf("LookupLabels: %w", err)
				}
			}
		}
	}

	// Reachability between different components, as the /reach queries ask
	// it of the index.
	labelOf := make(map[record.NodeID]uint32, len(labels))
	for _, l := range labels {
		labelOf[l.Node] = l.SCC
	}
	type pair struct {
		su, sv uint32 // the program's labels
		cu, cv int32  // the oracle's components
	}
	var pairs []pair
	for _, q := range qs {
		cu, cv := r.in.or.compOf(q.u), r.in.or.compOf(q.v)
		if q.kind == kindReach && cu >= 0 && cv >= 0 && cu != cv {
			pairs = append(pairs, pair{labelOf[q.u], labelOf[q.v], cu, cv})
		}
	}
	if len(pairs) > 0 {
		reach := make([]bool, len(pairs))
		rc := tr.begin("condense.reach", noParent)
		for i, p := range pairs {
			reach[i] = ix.Reaches(p.su, p.sv)
		}
		tr.end(rc)
		out.reachUs = float64(tr.spans[rc].dur()) / float64(time.Microsecond) / float64(len(pairs))
		for i, p := range pairs {
			if want := r.in.or.reaches(p.cu, p.cv); reach[i] != want {
				return nil, fmt.Errorf("Index.Reaches(%d, %d) = %v, oracle says %v", p.su, p.sv, reach[i], want)
			}
		}
	}
	out.spans = tr.spans
	if err := res.Close(); err != nil {
		return nil, err
	}
	if err := backend.RemoveAll(dir); err != nil {
		return nil, err
	}
	return out, r.checkClean()
}

// statsSnapshot maps the accounted counters of Result.Stats onto a Snapshot.
func statsSnapshot(st extscc.Stats) iomodel.Snapshot {
	return iomodel.Snapshot{
		ReadBlocks: st.ReadIOs, WriteBlocks: st.WriteIOs, RandomReads: st.RandomReads, RandomWrites: st.RandomWrites,
		BytesRead: st.BytesRead, BytesWritten: st.BytesWritten, FilesCreated: st.FilesCreated,
	}
}
