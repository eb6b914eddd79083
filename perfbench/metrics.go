package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"time"

	"extscc/internal/iomodel"
	"extscc/internal/record"
	"extscc/internal/storage"
)

// metricDef is one metric as BENCHMARK.json declares it; bound is 0 for
// per-layer metrics.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the program sees, reported on every
// workload with tracing off and gated by their bounds.  README.md defines
// each per workload.  setup_s and run_s are steal-adjusted, and the
// CPU-bound times are divided by the speed probe's slowdown (speed.go); the
// bounds leave room for what neither removes: CPU time grows by up to a
// quarter under heavy steal (caches refill after every preemption), and the
// probe follows the host's drift only in part.  The peak resident set moves
// by a few percent between runs and seeds; total_ios and write_amp vary only
// with the seed, by up to 4% and 1% across ten seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"total_ios", "blocks", "lower", 0.12},
	{"write_amp", "ratio", "lower", 0.05},
}

// reportedOnly are end-to-end metrics printed and recorded but not gated.
// The query figures exist on serve-large only; its throughput is gated as
// run_s, the time of a session of queries.  The latency percentiles follow
// the hypervisor: a serve query crosses between client and server several
// times, and each wake-up may find its vCPU stolen, so even the p50 grows
// by half under heavy steal (0.15-0.17 ms at a demand steal share of at
// most 0.05, 0.21-0.27 ms at 0.44-0.57).  fail_frac is 0 when the program
// is correct.
var reportedOnly = []metricDef{
	{name: "query_qps", unit: "1/s", better: "higher"},
	{name: "query_p50_ms", unit: "ms", better: "lower"},
	{name: "query_p90_ms", unit: "ms", better: "lower"},
	{name: "query_p99_ms", unit: "ms", better: "lower"},
	{name: "fail_frac", unit: "ratio", better: "lower"},
}

// perLayer are the metrics of single layers, from the traced sample.
var perLayer = []metricDef{
	{name: "extsort.sort_s", unit: "s", better: "lower"},
	{name: "extsort.merge_s", unit: "s", better: "lower"},
	{name: "extsort.calls", unit: "count", better: "lower"},
	{name: "extsort.mrec_per_s", unit: "Mrec/s", better: "higher"},
	{name: "contraction.s", unit: "s", better: "lower"},
	{name: "contraction.self_s", unit: "s", better: "lower"},
	{name: "contraction.ios", unit: "blocks", better: "lower"},
	{name: "expansion.s", unit: "s", better: "lower"},
	{name: "expansion.self_s", unit: "s", better: "lower"},
	{name: "expansion.ios", unit: "blocks", better: "lower"},
	{name: "core.iterations", unit: "count", better: "lower"},
	{name: "core.edges_peak", unit: "edges", better: "lower"},
	{name: "core.condensed_nodes", unit: "nodes", better: "lower"},
	{name: "semiscc.s", unit: "s", better: "lower"},
	{name: "semiscc.ios", unit: "blocks", better: "lower"},
	{name: "extscc.stage_s", unit: "s", better: "lower"},
	{name: "extscc.clock_gap_s", unit: "s", better: "lower"},
	{name: "extscc.lookup_ms", unit: "ms", better: "lower"},
	{name: "recio.encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "recio.decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "recio.compression_ratio", unit: "ratio", better: "higher"},
	{name: "blockio.read_blocks", unit: "blocks", better: "lower"},
	{name: "blockio.write_blocks", unit: "blocks", better: "lower"},
	{name: "blockio.random_reads", unit: "blocks", better: "lower"},
	{name: "storage.busy_s", unit: "s", better: "lower"},
	{name: "storage.read_calls", unit: "count", better: "lower"},
	{name: "storage.write_calls", unit: "count", better: "lower"},
	{name: "storage.read_mb", unit: "MB", better: "lower"},
	{name: "storage.write_mb", unit: "MB", better: "lower"},
	{name: "serve.ingest_s", unit: "s", better: "lower"},
	{name: "serve.lru_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.batch_size_mean", unit: "lookups", better: "higher"},
	{name: "condense.dag_build_s", unit: "s", better: "lower"},
	{name: "condense.index_build_s", unit: "s", better: "lower"},
	{name: "condense.index_entries", unit: "count", better: "lower"},
	{name: "condense.reach_us", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "host.steal_frac", unit: "ratio", better: "lower"},
	{name: "host.demand_steal_frac", unit: "ratio", better: "lower"},
	{name: "host.load1", unit: "load", better: "lower"},
	{name: "host.slowdown", unit: "ratio", better: "lower"},
}

// workloadInfo records what a workload is and what its input turned out to
// be for the seed.
type workloadInfo struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Generator map[string]any `json:"generator"`
	Nodes     int            `json:"nodes"`
	Edges     int            `json:"edges"`
	SCCs      int            `json:"sccs"`
	DAGNodes  int            `json:"dag_nodes"`
}

// result is everything one invocation measured.  It is written in full to
// the results directory; its summary is printed.
type result struct {
	Workload  workloadInfo       `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	// Measured holds the time-based end-to-end metrics before the steal
	// adjustment and the slowdown: the quiet medians of the times as
	// measured.
	Measured map[string]float64 `json:"end_to_end_as_measured"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Dists are the distributions behind the sampled metrics.
	Dists      map[string]dist `json:"distributions"`
	Samples    any             `json:"samples"`
	TraceFile  string          `json:"trace_file,omitempty"`
	ResultFile string          `json:"-"`

	spans []span
}

func newResult(r *runner, o options, host hostInfo) *result {
	gen := r.w.gen
	gen.Seed = r.seed
	var genParams map[string]any
	raw, _ := json.Marshal(gen)
	json.Unmarshal(raw, &genParams)
	return &result{
		Workload: workloadInfo{
			Name: r.w.name, Why: r.w.why, Generator: genParams,
			Nodes: r.in.or.numNodes, Edges: r.in.numEdges, SCCs: r.in.or.numSCCs, DAGNodes: r.in.or.dagNodes,
		},
		Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Host: host,
		Measured: map[string]float64{}, Dists: map[string]dist{},
	}
}

// finish records the operation counts and decides correctness.
func (res *result) finish(r *runner) {
	res.Attempted, res.Failed, res.Errors = r.attempted, r.failed, r.errs
	res.Correct = r.failed == 0 && r.attempted > 0 && res.EndToEnd != nil
	if res.Traced && res.PerLayer == nil {
		res.Correct = false
	}
	if res.EndToEnd != nil {
		res.EndToEnd["fail_frac"] = float64(r.failed) / float64(r.attempted)
	}
}

// addDist records the distribution of a sampled quantity.
func (res *result) addDist(name string, xs []float64) {
	if len(xs) > 0 {
		res.Dists[name] = summarize(xs)
	}
}

// print writes the human-readable report, then the one-line JSON result,
// which must be the last line of standard output.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d: %d ops, %d failed | %d nodes, %d edges, %d SCCs, %d DAG nodes | nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		res.Workload.Name, res.Seed, res.Attempted, res.Failed, res.Workload.Nodes, res.Workload.Edges,
		res.Workload.SCCs, res.Workload.DAGNodes, res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion,
		res.Host.Commit)
	fmt.Fprintf(w, "%-24s %-8s %12s %12s %12s %6s  %s\n", "metric", "unit", "value", "q1", "q3", "n", "tail")
	row := func(name, unit string, v float64, distName string) {
		d, ok := res.Dists[distName]
		if !ok {
			fmt.Fprintf(w, "%-24s %-8s %12.6g\n", name, unit, v)
			return
		}
		fmt.Fprintf(w, "%-24s %-8s %12.6g %12.6g %12.6g %6d  p%g=%.6g\n", name, unit, v, d.Q1, d.Q3, d.N, d.TailP, d.Tail)
	}
	for _, m := range slices.Concat(endToEnd, reportedOnly) {
		if v, ok := res.EndToEnd[m.name]; ok {
			row(m.name, m.unit, v, m.name)
		}
	}
	// The time-based metrics before the steal adjustment and the slowdown.
	for _, m := range slices.Concat(endToEnd, reportedOnly) {
		if v, ok := res.Measured[m.name]; ok {
			row(m.name+" (as measured)", m.unit, v, "")
		}
	}
	// Every latency of the run, pooled: its tail is the highest percentile
	// with at least ten samples beyond it.
	row("query_ms (all)", "ms", res.Dists["query_ms"].Median, "query_ms")
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.name]; ok {
			row(m.name, m.unit, v, m.name)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "trace: %s\n", res.TraceFile)
	}
	fmt.Fprintf(w, "result: %s\n", res.ResultFile)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, vals := endToEnd, res.EndToEnd
	if res.Traced {
		defs, vals = perLayer, res.PerLayer
	}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// spanMetrics returns every per-layer metric, filled in where the traced
// sample's spans measure it and 0 for layers the workload does not
// exercise.
func spanMetrics(spans []span) map[string]float64 {
	pl := map[string]float64{}
	for _, d := range perLayer {
		pl[d.name] = 0
	}
	t := layerTotals(spans)
	pl["extsort.sort_s"] = t["extsort.sort"].Incl.Seconds()
	pl["extsort.merge_s"] = t["extsort.merge"].Incl.Seconds()
	pl["extsort.calls"] = float64(t["extsort.sort"].Count)
	for _, l := range []string{"contraction", "expansion"} {
		pl[l+".s"] = t[l].Incl.Seconds()
		pl[l+".self_s"] = t[l].Self.Seconds()
		pl[l+".ios"] = float64(t[l].IOs)
	}
	pl["semiscc.s"] = t["semiscc"].Incl.Seconds()
	pl["semiscc.ios"] = float64(t["semiscc"].IOs)
	pl["extscc.stage_s"] = t["extscc.stage"].Incl.Seconds()
	pl["condense.dag_build_s"] = t["condense.dag_build"].Incl.Seconds()
	pl["condense.index_build_s"] = t["condense.index_build"].Incl.Seconds()
	return pl
}

// sampleFor takes samples until the next one no longer fits in the
// measuring window, judged by the median wall time of those so far, and
// returns the ones that succeeded.
func sampleFor[S any](ctx context.Context, r *runner, take func() (S, error)) []S {
	var ok []S
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || (ctx.Err() == nil && time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= r.seconds) {
		t0 := time.Now()
		s, err := take()
		if err != nil {
			r.fail(err)
		} else {
			ok = append(ok, s)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return ok
}

func column[T, V any](xs []T, f func(T) V) []V {
	out := make([]V, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// figure sets end-to-end metric name to the quiet median of the adjusted
// values adj, and records the quiet median of the values as measured beside
// it.
func (res *result) figure(name string, measured, adj, steal []float64) {
	res.EndToEnd[name] = quietMedian(adj, steal)
	res.Measured[name] = quietMedian(measured, steal)
	res.addDist(name, adj)
}

// timeFigure is figure for the times ts of CPU-bound intervals, each
// measured with noise ns and adjusted by unstolen, then divided by the
// slowdown the speed probe measured for its sample.
func (res *result) timeFigure(name string, ts []float64, ns []noise, slow []float64) {
	adj := make([]float64, len(ts))
	for i, t := range ts {
		adj[i] = unstolen(t, ns[i]) / slow[i]
	}
	res.figure(name, ts, adj, column(ns, func(n noise) float64 { return n.DemandSteal }))
}

// latencyMetrics fills the query metrics from the run's sessions.  The
// throughput is queries over the session's time with the stolen CPU time
// taken out (sessionTime).  The latency percentiles are left as measured:
// steal delays some queries by whole scheduling slices rather than
// stretching every query, so no single factor corrects a percentile.
func (res *result) latencyMetrics(sessions []session, lat []float64, sessionTime func(session) float64) {
	steal := column(sessions, func(s session) float64 { return s.Noise.DemandSteal })
	res.figure("query_qps",
		column(sessions, func(s session) float64 { return float64(s.Queries) / s.Wall }),
		column(sessions, func(s session) float64 { return float64(s.Queries) / sessionTime(s) }), steal)
	res.EndToEnd["query_p50_ms"] = quietMedian(column(sessions, func(s session) float64 { return s.P50 }), steal)
	res.EndToEnd["query_p90_ms"] = quietMedian(column(sessions, func(s session) float64 { return s.P90 }), steal)
	res.EndToEnd["query_p99_ms"] = quietMedian(column(sessions, func(s session) float64 { return s.P99 }), steal)
	res.addDist("query_ms", lat)
}

// noiseMetrics records the distributions of the samples' noise readings
// and slowdowns.
func (res *result) noiseMetrics(ns []noise, slow []float64) {
	res.addDist("host.steal_frac", column(ns, func(n noise) float64 { return n.Steal }))
	res.addDist("host.demand_steal_frac", column(ns, func(n noise) float64 { return n.DemandSteal }))
	res.addDist("host.load1", column(ns, func(n noise) float64 { return n.Load1 }))
	res.addDist("host.slowdown", slow)
}

// hostMetrics copies the noise medians into the per-layer metrics.
func (res *result) hostMetrics(pl map[string]float64) {
	for _, name := range []string{"host.steal_frac", "host.demand_steal_frac", "host.load1", "host.slowdown"} {
		pl[name] = res.Dists[name].Median
	}
}

func storageMetrics(pl map[string]float64, tb *timedBackend) {
	pl["storage.busy_s"] = time.Duration(tb.busy.Load()).Seconds()
	pl["storage.read_calls"] = float64(tb.reads.Load())
	pl["storage.write_calls"] = float64(tb.writes.Load())
	pl["storage.read_mb"] = float64(tb.readBytes.Load()) / 1e6
	pl["storage.write_mb"] = float64(tb.writeBytes.Load()) / 1e6
}

// measureBatch runs batch samples for the measuring window and, when traced,
// the layer-by-layer sample.
func (r *runner) measureBatch(ctx context.Context, res *result, traced bool) error {
	spec := r.w.batch
	var ref []record.Label // the first sample's labelling
	ok := sampleFor(ctx, r, func() (batchSample, error) {
		s, err := r.batchSample(ctx)
		r.attempted++
		if err == nil && ref == nil {
			ref = s.labels
		}
		s.labels = nil
		return s, err
	})
	res.Samples = ok
	if len(ok) == 0 {
		return nil
	}
	for _, s := range ok[1:] {
		if s.Stats.TotalIOs != ok[0].Stats.TotalIOs {
			r.fail(fmt.Errorf("accounted I/O differs between samples: %d vs %d", s.Stats.TotalIOs, ok[0].Stats.TotalIOs))
		}
	}
	cpu := column(ok, func(s batchSample) float64 { return s.CPU })
	rss := column(ok, func(s batchSample) float64 { return s.RSS })
	gap := column(ok, func(s batchSample) float64 { return s.Run - s.Duration })
	slow := column(ok, func(s batchSample) float64 { return s.Slowdown })
	runNoise := column(ok, func(s batchSample) noise { return s.Noise })
	steal := column(runNoise, func(n noise) float64 { return n.DemandSteal })
	res.EndToEnd = map[string]float64{
		"peak_rss_mb": quietMedian(rss, steal),
		"total_ios":   float64(ok[0].Stats.TotalIOs),
		"write_amp":   float64(ok[0].Stats.BytesWritten) / (8 * float64(r.in.numEdges)),
	}
	res.figure("cpu_s", cpu, divide(cpu, slow), steal)
	res.timeFigure("setup_s", column(ok, func(s batchSample) float64 { return s.Setup }), column(ok, func(s batchSample) noise { return s.SampleNoise }), slow)
	res.timeFigure("run_s", column(ok, func(s batchSample) float64 { return s.Run }), runNoise, slow)
	for name, xs := range map[string][]float64{"peak_rss_mb": rss, "extscc.clock_gap_s": gap} {
		res.addDist(name, xs)
	}
	res.noiseMetrics(runNoise, slow)
	if !traced {
		return nil
	}

	// The traced sample: the same pipeline as direct layer calls, once bare
	// and once with spans and the storage timing wrapper.
	r.attempted++
	bare, err := r.runReplica(ctx, storage.OS(), false)
	if err != nil {
		r.fail(fmt.Errorf("layer calls: %w", err))
		return nil
	}
	slowdown := probeSlowdown()
	tb := newTimedBackend(storage.OS())
	tr, err := r.runReplica(ctx, tb, true)
	if err == nil {
		err = r.checkReplica(ok[0], ref, bare, tr)
	}
	if err == nil {
		err = r.checkClean()
	}
	if err != nil {
		r.fail(fmt.Errorf("traced sample: %w", err))
		return nil
	}
	cfg, err := spec.ioConfig(storage.OS(), r.tmp)
	if err != nil {
		return err
	}
	sortRate, err := r.sortSourceRate(ctx, cfg)
	if err != nil {
		return err
	}
	enc, dec, err := r.codecRates(spec.Codec)
	if err != nil {
		return err
	}

	pl := spanMetrics(tr.spans)
	pl["extsort.mrec_per_s"] = sortRate
	pl["core.iterations"] = float64(tr.iterations)
	pl["core.edges_peak"] = float64(tr.edgesPeak)
	pl["core.condensed_nodes"] = float64(tr.semiNodes)
	pl["extscc.clock_gap_s"] = median(gap)
	pl["recio.encode_mb_s"], pl["recio.decode_mb_s"] = enc, dec
	pl["recio.compression_ratio"] = tr.io.CompressionRatio()
	pl["blockio.read_blocks"] = float64(tr.io.ReadBlocks)
	pl["blockio.write_blocks"] = float64(tr.io.WriteBlocks)
	pl["blockio.random_reads"] = float64(tr.io.RandomReads)
	storageMetrics(pl, tb)
	pl["trace.overhead_frac"] = unstolen(tr.wall.Seconds(), tr.noise)/slowdown/res.EndToEnd["run_s"] - 1
	res.hostMetrics(pl)
	res.PerLayer, res.spans = pl, tr.spans
	return nil
}

// checkReplica verifies the traced sample: the bare and traced layer calls
// label and account identically (the tracing is transparent), and both
// reproduce the first Engine.Run sample's labelling and accounted I/O.
func (r *runner) checkReplica(ref batchSample, refLabels []record.Label, bare, tr *replica) error {
	if err := r.in.or.checkLabels(tr.labels); err != nil {
		return fmt.Errorf("wrong partition: %w", err)
	}
	if !slices.Equal(bare.labels, tr.labels) {
		return fmt.Errorf("tracing changed the labelling")
	}
	if bare.io != tr.io {
		return fmt.Errorf("tracing changed the accounted I/O: %+v vs %+v", tr.io, bare.io)
	}
	if !slices.Equal(refLabels, tr.labels) {
		return fmt.Errorf("the layer calls label differently from Engine.Run")
	}
	if err := sameIOStats(ref.Stats, tr.io); err != nil {
		return err
	}
	if tr.numSCCs != ref.NumSCCs {
		return fmt.Errorf("layer calls found %d SCCs, Engine.Run %d", tr.numSCCs, ref.NumSCCs)
	}
	return nil
}

// measureServe runs server lifetimes for the measuring window and, when
// traced, the traced set-up.
func (r *runner) measureServe(ctx context.Context, res *result, traced bool) error {
	spec := r.w.serve
	qs := makeQueries(rand.New(rand.NewSource(r.seed)), r.in.or, 1+spec.clients*(spec.warmup+spec.sessions*spec.queries))
	ok := sampleFor(ctx, r, func() (serveSample, error) {
		s, err := r.serveSample(ctx, qs)
		r.attempted += 1 + s.Queries
		r.failed += s.Failed
		if s.firstErr != nil {
			r.errs = append(r.errs, s.firstErr.Error())
		}
		return s, err
	})
	res.Samples = ok
	if len(ok) == 0 {
		return nil
	}
	for _, s := range ok[1:] {
		if s.totalIOs() != ok[0].totalIOs() {
			r.fail(fmt.Errorf("accounted I/O differs between server lifetimes: %d vs %d", s.totalIOs(), ok[0].totalIOs()))
		}
	}
	var lat []float64
	var sessions []session
	var sessionSlow []float64 // the slowdown of each session's server lifetime
	var hits, misses, batches, batched int64
	for _, s := range ok {
		lat = append(lat, s.latMs...)
		sessions = append(sessions, s.Sessions...)
		for range s.Sessions {
			sessionSlow = append(sessionSlow, s.Slowdown)
		}
		hits, misses, batches, batched = hits+s.Hits, misses+s.Misses, batches+s.Batches, batched+s.Batched
	}
	cpu := column(sessions, func(s session) float64 { return s.CPU })
	rss := column(ok, func(s serveSample) float64 { return s.RSS })
	slow := column(ok, func(s serveSample) float64 { return s.Slowdown })
	sessionNoise := column(sessions, func(s session) noise { return s.Noise })
	lifeNoise := column(ok, func(s serveSample) noise { return s.Noise })
	st := ok[0].Stats
	res.EndToEnd = map[string]float64{
		"peak_rss_mb": quietMedian(rss, column(lifeNoise, func(n noise) float64 { return n.DemandSteal })),
		"total_ios":   float64(ok[0].totalIOs()),
		"write_amp":   float64(st.Engine.BytesWritten+st.Build.BytesWritten) / (8 * float64(r.in.numEdges)),
	}
	res.figure("cpu_s", cpu, divide(cpu, sessionSlow), column(sessionNoise, func(n noise) float64 { return n.DemandSteal }))
	res.timeFigure("setup_s", column(ok, func(s serveSample) float64 { return s.Setup }), column(ok, func(s serveSample) noise { return s.SetupNoise }), slow)
	// A session is spec.clients closed loops that mostly wait on the batch
	// window, not a CPU-bound interval: steal delays each loop by its share
	// of the CPU time stolen meanwhile.
	sessionTime := func(s session) float64 { return s.Wall - s.Noise.Stolen/float64(spec.clients) }
	res.figure("run_s", column(sessions, func(s session) float64 { return s.Wall }), column(sessions, sessionTime),
		column(sessionNoise, func(n noise) float64 { return n.DemandSteal }))
	res.latencyMetrics(sessions, lat, sessionTime)
	res.addDist("peak_rss_mb", rss)
	res.noiseMetrics(lifeNoise, slow)
	if !traced {
		return nil
	}

	r.attempted++
	batchMean := float64(batched) / float64(max(batches, 1))
	slowdown := probeSlowdown()
	trc, err := r.traceServe(ctx, qs, max(1, int(math.Round(batchMean))), st)
	if err != nil {
		r.fail(fmt.Errorf("traced sample: %w", err))
		return nil
	}
	cfg, err := iomodel.Config{Storage: storage.OS(), TempDir: r.tmp}.Validate()
	if err != nil {
		return err
	}
	cfg.Workers = trc.ingest.Workers
	sortRate, err := r.sortSourceRate(ctx, cfg)
	if err != nil {
		return err
	}
	enc, dec, err := r.codecRates("")
	if err != nil {
		return err
	}
	pl := spanMetrics(trc.spans)
	pl["extsort.mrec_per_s"] = sortRate
	pl["core.iterations"] = float64(trc.ingest.ContractionIterations)
	pl["core.edges_peak"] = float64(r.in.numEdges)
	if trc.ingest.ContractionIterations == 0 {
		// Without a contraction iteration, the ingest's accounted I/O after
		// staging is the semi-external solve of the whole graph and its
		// label count.
		pl["core.condensed_nodes"] = float64(r.in.or.numNodes)
		pl["semiscc.ios"] = float64(trc.ingest.TotalIOs)
	}
	pl["extscc.clock_gap_s"] = (trc.ingestWall - trc.ingest.Duration).Seconds()
	pl["extscc.lookup_ms"] = trc.lookupMs
	pl["recio.encode_mb_s"], pl["recio.decode_mb_s"] = enc, dec
	pl["recio.compression_ratio"] = trc.ingest.CompressionRatio
	pl["blockio.read_blocks"] = float64(trc.ingest.ReadIOs + trc.buildIO.ReadBlocks)
	pl["blockio.write_blocks"] = float64(trc.ingest.WriteIOs + trc.buildIO.WriteBlocks)
	pl["blockio.random_reads"] = float64(trc.ingest.RandomReads + trc.buildIO.RandomReads)
	storageMetrics(pl, trc.storage)
	pl["serve.ingest_s"] = trc.ingestWall.Seconds()
	pl["serve.lru_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	pl["serve.batch_size_mean"] = batchMean
	pl["condense.index_entries"] = float64(trc.entries)
	pl["condense.reach_us"] = trc.reachUs
	pl["trace.overhead_frac"] = unstolen(trc.setupWall.Seconds(), trc.setupNoise)/slowdown/res.EndToEnd["setup_s"] - 1
	res.hostMetrics(pl)
	res.PerLayer, res.spans = pl, trc.spans
	return nil
}
