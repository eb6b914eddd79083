package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"extscc"
	"extscc/internal/blockio"
	"extscc/internal/contraction"
	"extscc/internal/core"
	"extscc/internal/edgefile"
	"extscc/internal/expansion"
	"extscc/internal/iomodel"
	"extscc/internal/recio"
	"extscc/internal/record"
	"extscc/internal/semiscc"
	"extscc/internal/storage"
)

// batchSample is one untraced batch sample, measured in a child process:
// set-up and one Engine.Run.
type batchSample struct {
	Setup    float64      `json:"setup_s"` // median over setupRepeats
	Run      float64      `json:"run_s"`
	CPU      float64      `json:"cpu_s"`
	Duration float64      `json:"engine_duration_s"` // Result.Stats.Duration
	RSS      float64      `json:"peak_rss_mb"`
	Stats    extscc.Stats `json:"stats"`
	NumSCCs  int64        `json:"sccs"`
	// Noise is the host's steal over the run, SampleNoise over set-up and
	// run together.  A set-up takes milliseconds, too short for the 10 ms
	// ticks of /proc/stat, so it is judged by the sample's steal.
	Noise       noise `json:"noise"`
	SampleNoise noise `json:"sample_noise"`
	// Slowdown is the speed probe's, run before set-up.
	Slowdown float64 `json:"slowdown"`

	labels []record.Label
}

// setupRepeats is how many times a batch sample sets up.
const setupRepeats = 7

// batchRequest is what the parent sends a batch child.
type batchRequest struct {
	Spec   batchSpec `json:"spec"`
	Input  string    `json:"input"`  // the generated edge file
	Staged string    `json:"staged"` // where set-up writes the input the run reads
	Tmp    string    `json:"tmp"`    // the program's temp directory
	Labels string    `json:"labels"` // where the child writes the run's labelling
}

// batchSample runs one batch sample in a child process, then checks its
// labelling against the oracle and that Close left nothing behind.
func (r *runner) batchSample(ctx context.Context) (s batchSample, err error) {
	labels := filepath.Join(r.work, "labels.bin")
	defer os.Remove(labels)
	ch, err := startChild(ctx, "batch", batchRequest{
		Spec: *r.w.batch, Input: r.in.path, Staged: filepath.Join(r.work, "staged.edges"),
		Tmp: r.tmp, Labels: labels,
	})
	if err != nil {
		return s, err
	}
	err = ch.recv(&s)
	if werr := ch.wait(); werr != nil {
		err = werr
	}
	if err != nil {
		r.checkClean() // clear what a failed child left for the next sample
		return s, err
	}
	if s.labels, err = readLabels(labels); err != nil {
		return s, err
	}
	if err := r.in.or.checkLabels(s.labels); err != nil {
		return s, fmt.Errorf("wrong partition: %w", err)
	}
	if s.NumSCCs != int64(r.in.or.numSCCs) {
		return s, fmt.Errorf("Result.NumSCCs = %d, oracle has %d", s.NumSCCs, r.in.or.numSCCs)
	}
	return s, r.checkClean()
}

// childBatch is a batch child: it sets up, runs the engine once over the
// input, writes the labelling for the parent to check, and closes the
// Result.
func childBatch(ctx context.Context, in *bufio.Reader, out io.Writer) error {
	var req batchRequest
	if err := readLine(in, &req); err != nil {
		return err
	}
	s := batchSample{Slowdown: probeSlowdown()}
	spec := req.Spec
	cfg, err := inputConfig()
	if err != nil {
		return err
	}
	edges, err := recio.ReadAll(req.Input, record.EdgeCodec{}, cfg)
	if err != nil {
		return err
	}

	// Set-up: what a user does before Run — write the input edges to
	// storage through the program's edge-file writer, and build the engine.
	// It takes milliseconds, so it is repeated and the median kept.
	var eng *extscc.Engine
	sm := startNoise()
	setups := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		t0 := time.Now()
		if err := recio.WriteSlice(req.Staged, record.EdgeCodec{}, cfg, edges); err != nil {
			return fmt.Errorf("write input: %w", err)
		}
		if eng, err = extscc.New(spec.engineOptions(extscc.OSStorage(), req.Tmp)...); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	s.Setup = median(setups)
	edges = nil

	resetPeakRSS()
	nm := startNoise()
	cpu0 := processCPU()
	t1 := time.Now()
	res, err := eng.Run(ctx, extscc.FileSource(req.Staged))
	s.Run = time.Since(t1).Seconds()
	s.CPU = (processCPU() - cpu0).Seconds()
	s.RSS = peakRSSMiB()
	s.Noise, s.SampleNoise = nm.stop(), sm.stop()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	defer res.Close()
	s.Duration = res.Stats.Duration.Seconds()
	s.Stats, s.NumSCCs = res.Stats, res.NumSCCs
	s.Stats.Phases = nil

	labels, err := res.Labels()
	if err != nil {
		return fmt.Errorf("read labels: %w", err)
	}
	if err := writeLabels(req.Labels, labels); err != nil {
		return err
	}
	if err := res.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return writeLine(out, s)
}

// writeLabels and readLabels pass a labelling from child to parent as
// little-endian (node, scc) pairs.
func writeLabels(path string, labels []record.Label) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = binary.Write(w, binary.LittleEndian, labels)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readLabels(path string) ([]record.Label, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	labels := make([]record.Label, len(data)/8)
	return labels, binary.Read(bytes.NewReader(data), binary.LittleEndian, labels)
}

// replica is the result of running the engine's batch pipeline as direct
// calls into its layers.
type replica struct {
	labels     []record.Label
	io         iomodel.Snapshot // accounted I/O after staging, as Result.Stats counts it
	numSCCs    int64
	wall       time.Duration // staging and algorithm
	noise      noise         // the host's steal over wall
	iterations int
	edgesPeak  int64
	semiNodes  int64
	spans      []span
}

// runReplica performs what Engine.Run does for the workload's batch
// configuration — staging, then core.ExtSCC — by calling the same public
// layer functions in the same order.  Traced, every call is a span;
// otherwise the calls run bare.  A change to the engine's pipeline that the
// replica does not follow shows up as a labelling or accounted I/O that
// differs from Engine.Run's.
func (r *runner) runReplica(ctx context.Context, backend storage.Backend, traced bool) (*replica, error) {
	spec := r.w.batch
	cfg, err := spec.ioConfig(backend, r.tmp)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(cfg.Stats)
	}
	out := &replica{}
	nm := startNoise()
	t0 := time.Now()
	root := tr.begin("extscc.run", noParent)

	runDir, err := backend.MkdirTemp(r.tmp, "extscc-engine-")
	if err != nil {
		return nil, err
	}
	defer backend.RemoveAll(runDir)
	cfg.TempDir = runDir

	var g edgefile.Graph
	err = tr.call("extscc.stage", root, cfg, func(cfg iomodel.Config) (err error) {
		g, err = edgefile.GraphFromEdgeFile(r.in.path, runDir, nil, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.edgesPeak = g.NumEdges
	before := cfg.Stats.Snapshot()

	labelPath, err := extSCC(ctx, tr, root, g, runDir, cfg, out)
	if err != nil {
		return nil, err
	}
	out.io = cfg.Stats.Snapshot().Sub(before)
	out.wall, out.noise = time.Since(t0), nm.stop()
	tr.end(root)
	if tr != nil {
		out.spans = tr.spans
	}
	out.labels, err = recio.ReadAll(labelPath, record.LabelCodec{}, cfg)
	return out, err
}

// extSCC mirrors core.ExtSCC: contract until the graph fits the node
// budget, solve semi-externally, expand back, count the components.
func extSCC(ctx context.Context, tr *tracer, parent int, g edgefile.Graph, dir string, cfg iomodel.Config, out *replica) (string, error) {
	runDir, err := cfg.Backend().MkdirTemp(dir, "extscc-run-")
	if err != nil {
		return "", err
	}
	type removed struct{ edgePath, removedPath string }
	var steps []removed
	var inter []edgefile.Graph
	current := g
	for current.NumNodes > cfg.NodeCapacity() {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		if len(steps) >= core.DefaultMaxIterations {
			return "", fmt.Errorf("contraction did not reach the node budget in %d iterations", len(steps))
		}
		var cres contraction.Result
		err := tr.call("contraction", parent, cfg, func(cfg iomodel.Config) (err error) {
			cres, err = contraction.Contract(ctx, current, runDir, contraction.Options{Optimized: true}, cfg)
			return err
		})
		if err != nil {
			return "", err
		}
		steps = append(steps, removed{current.EdgePath, cres.RemovedPath})
		current = cres.Next
		inter = append(inter, cres.Next)
		out.iterations++
		out.edgesPeak = max(out.edgesPeak, current.NumEdges)
	}
	out.semiNodes = current.NumNodes

	var semi semiscc.Result
	err = tr.call("semiscc", parent, cfg, func(cfg iomodel.Config) (err error) {
		semi, err = semiscc.Compute(current, runDir, semiscc.Options{}, cfg)
		return err
	})
	if err != nil {
		return "", err
	}
	labels, numLabels := semi.LabelPath, semi.NumLabels
	for i := len(steps) - 1; i >= 0; i-- {
		var eres expansion.Result
		err := tr.call("expansion", parent, cfg, func(cfg iomodel.Config) (err error) {
			eres, err = expansion.ExpandContext(ctx, expansion.Input{
				EdgePath: steps[i].edgePath, RemovedPath: steps[i].removedPath, KeptLabelsPath: labels,
			}, runDir, cfg)
			return err
		})
		if err != nil {
			return "", err
		}
		blockio.Remove(labels, cfg)
		labels, numLabels = eres.LabelPath, eres.NumLabels
	}
	n, err := semiscc.CountSCCsInFile(labels, cfg)
	if err != nil {
		return "", err
	}
	if numLabels != g.NumNodes {
		return "", fmt.Errorf("produced %d labels for %d nodes", numLabels, g.NumNodes)
	}
	out.numSCCs = n
	for _, s := range steps {
		if s.edgePath != g.EdgePath {
			blockio.Remove(s.edgePath, cfg)
		}
		blockio.Remove(s.removedPath, cfg)
	}
	for _, ig := range inter {
		blockio.Remove(ig.EdgePath, cfg)
		blockio.Remove(ig.NodePath, cfg)
	}
	return labels, nil
}

// sameIOStats reports the first counter Result.Stats exposes on which the
// replica's accounted I/O differs from an Engine.Run sample.
func sameIOStats(st extscc.Stats, io iomodel.Snapshot) error {
	pairs := []struct {
		name      string
		eng, repl int64
	}{
		{"total_ios", st.TotalIOs, io.TotalIOs()},
		{"read_ios", st.ReadIOs, io.ReadBlocks},
		{"write_ios", st.WriteIOs, io.WriteBlocks},
		{"random_reads", st.RandomReads, io.RandomReads},
		{"random_writes", st.RandomWrites, io.RandomWrites},
		{"bytes_read", st.BytesRead, io.BytesRead},
		{"bytes_written", st.BytesWritten, io.BytesWritten},
		{"files_created", st.FilesCreated, io.FilesCreated},
	}
	for _, p := range pairs {
		if p.eng != p.repl {
			return fmt.Errorf("%s: Engine.Run %d, layer calls %d", p.name, p.eng, p.repl)
		}
	}
	return nil
}

// sortSourceRate times a direct sort by source of the workload's edge file
// under cfg, the extsort layer alone, and returns million records per
// second (median of three).
func (r *runner) sortSourceRate(ctx context.Context, cfg iomodel.Config) (float64, error) {
	var rates []float64
	for range 3 {
		out := blockio.TempFile(r.tmp, "bench-sort", cfg.Stats)
		t0 := time.Now()
		err := edgefile.SortEdgesContext(ctx, r.in.path, out, record.EdgeBySource, cfg)
		d := time.Since(t0)
		blockio.Remove(out, cfg)
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(r.in.numEdges)/d.Seconds()/1e6)
	}
	return median(rates), nil
}

// codecRates times recio.WriteSlice and recio.ReadAll of the workload's
// edges under codec on the in-memory backend, so that the figures are the
// record codec and framing alone, in MB/s of 8-byte records (median of
// three).
func (r *runner) codecRates(codec string) (enc, dec float64, err error) {
	edges, err := r.in.readEdges()
	if err != nil {
		return 0, 0, err
	}
	cfg, err := iomodel.Config{Codec: codec, Storage: storage.NewMem()}.Validate()
	if err != nil {
		return 0, 0, err
	}
	mb := float64(len(edges)) * 8 / 1e6
	var encs, decs []float64
	for range 3 {
		path := blockio.TempFile(cfg.Storage.TempPath(), "bench-codec", cfg.Stats)
		t0 := time.Now()
		if err := recio.WriteSlice(path, record.EdgeCodec{}, cfg, edges); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		back, err := recio.ReadAll(path, record.EdgeCodec{}, cfg)
		t2 := time.Now()
		blockio.Remove(path, cfg)
		if err != nil {
			return 0, 0, err
		}
		if len(back) != len(edges) {
			return 0, 0, fmt.Errorf("codec round trip: %d of %d edges", len(back), len(edges))
		}
		encs = append(encs, mb/t1.Sub(t0).Seconds())
		decs = append(decs, mb/t2.Sub(t1).Seconds())
	}
	return median(encs), median(decs), nil
}
