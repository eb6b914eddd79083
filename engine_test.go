package extscc_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extscc"
	"extscc/internal/graphgen"
	"extscc/internal/iomodel"
	"extscc/internal/memgraph"
	"extscc/internal/recio"
	"extscc/internal/record"
)

func TestRegistryListsBuiltins(t *testing.T) {
	want := []string{"dfs-scc", "em-scc", "ext-scc", "ext-scc-op", "semi-scc"}
	have := map[string]bool{}
	for _, a := range extscc.Algorithms() {
		have[a.Name()] = true
		if a.Description() == "" {
			t.Errorf("algorithm %q has no description", a.Name())
		}
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("registry is missing %q (have %v)", name, have)
		}
	}
}

func TestLookupUnknownAlgorithm(t *testing.T) {
	_, err := extscc.Lookup("nope")
	if err == nil {
		t.Fatal("expected an error for an unknown algorithm")
	}
	if !strings.Contains(err.Error(), "unknown algorithm") || !strings.Contains(err.Error(), "ext-scc-op") {
		t.Fatalf("error should name the unknown algorithm and list the registry: %v", err)
	}
	if _, err := extscc.New(extscc.WithAlgorithm("nope")); err == nil {
		t.Fatal("New should reject an unknown algorithm")
	}
}

// singletonAlgo labels every node as its own SCC, exercising the open
// Algorithm interface the way an external backend would: through the
// exported Task fields only.
type singletonAlgo struct{}

func (singletonAlgo) Name() string        { return "test-singleton" }
func (singletonAlgo) Description() string { return "test stub: every node is its own SCC" }

func (singletonAlgo) Run(ctx context.Context, task *extscc.Task) (extscc.AlgoResult, error) {
	cfg, err := iomodel.DefaultConfig().Validate()
	if err != nil {
		return extscc.AlgoResult{}, err
	}
	nodes, err := recio.ReadAll(task.Graph.NodePath, record.NodeCodec{}, cfg)
	if err != nil {
		return extscc.AlgoResult{}, err
	}
	labels := make([]record.Label, len(nodes))
	for i, n := range nodes {
		labels[i] = record.Label{Node: n, SCC: n}
	}
	path := filepath.Join(task.Dir, "singleton-labels.bin")
	if err := recio.WriteSlice(path, record.LabelCodec{}, cfg, labels); err != nil {
		return extscc.AlgoResult{}, err
	}
	return extscc.AlgoResult{LabelPath: path, NumSCCs: int64(len(nodes))}, nil
}

func TestRegisterCustomAlgorithm(t *testing.T) {
	extscc.Register(singletonAlgo{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register should panic")
			}
		}()
		extscc.Register(singletonAlgo{})
	}()

	eng, err := extscc.New(
		extscc.WithAlgorithm("test-singleton"),
		extscc.WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Path(5)))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Algorithm != "test-singleton" {
		t.Fatalf("Result.Algorithm = %q", res.Algorithm)
	}
	if res.NumSCCs != 5 {
		t.Fatalf("custom algorithm reported %d SCCs, want 5", res.NumSCCs)
	}
}

func TestEngineRegistryAlgorithmsAgree(t *testing.T) {
	edges := graphgen.Random(60, 180, 4)
	want := memgraph.FromEdges(edges, nil).Tarjan().Labels()
	for _, algo := range []string{"ext-scc", "ext-scc-op", "dfs-scc", "semi-scc"} {
		eng, err := extscc.New(
			extscc.WithAlgorithm(algo),
			extscc.WithNodeBudget(12),
			extscc.WithTempDir(t.TempDir()),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), extscc.SliceSource(edges))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got, err := res.Labels()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !memgraph.SameSCCPartition(got, want) {
			t.Fatalf("%s: partition does not match Tarjan", algo)
		}
		res.Close()
	}
}

// TestStatsReportSemiExternalScans: the algorithms that end in the
// semi-external base case report its edge scans, one at least per solve,
// summed over the shard solves and the remainder under WithShards; the
// others report none.
func TestStatsReportSemiExternalScans(t *testing.T) {
	edges := graphgen.Random(60, 180, 4)
	for _, tc := range []struct {
		algo     string
		shards   int
		minScans int
	}{
		{"ext-scc", 1, 1},
		{"ext-scc-op", 1, 1},
		{"semi-scc", 1, 1},
		{"dfs-scc", 1, 0},
		{"ext-scc-op", 2, 3},
	} {
		eng, err := extscc.New(
			extscc.WithAlgorithm(tc.algo),
			extscc.WithNodeBudget(12),
			extscc.WithShards(tc.shards),
			extscc.WithTempDir(t.TempDir()),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), extscc.SliceSource(edges))
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		got := res.Stats.SemiExternalScans
		res.Close()
		if got < tc.minScans || (tc.minScans == 0 && got != 0) {
			t.Fatalf("%s with %d shards: SemiExternalScans = %d, want at least %d (exactly 0 when 0)", tc.algo, tc.shards, got, tc.minScans)
		}
	}
}

// TestCancelMidContractionCleansUp is the acceptance test for context
// cancellation: cancelling from the progress callback stops ext-scc-op
// within one contraction iteration, surfaces context.Canceled, and leaves no
// temp files behind.
func TestCancelMidContractionCleansUp(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iterations := 0
	eng, err := extscc.New(
		extscc.WithAlgorithm("ext-scc-op"),
		extscc.WithNodeBudget(8),
		extscc.WithTempDir(dir),
		extscc.WithProgress(func(p extscc.Progress) {
			iterations++
			cancel()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(ctx, extscc.SliceSource(graphgen.Random(300, 900, 1)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if iterations != 1 {
		t.Fatalf("run continued for %d contraction iterations after cancellation", iterations)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cancelled run left temp files behind: %v", names)
	}
}

func TestStreamMatchesLabels(t *testing.T) {
	eng, err := extscc.New(
		extscc.WithNodeBudget(20),
		extscc.WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Random(120, 360, 9)))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	want, err := res.Labels()
	if err != nil {
		t.Fatal(err)
	}
	var got []extscc.Label
	for node, scc := range res.Stream() {
		got = append(got, extscc.Label{Node: node, SCC: scc})
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Stream yielded %d labels, Labels loaded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("label %d: Stream %v != Labels %v", i, got[i], want[i])
		}
	}
	// Early break must not poison the iterator state.
	count := 0
	for range res.Stream() {
		count++
		if count == 3 {
			break
		}
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTextSource(t *testing.T) {
	input := strings.NewReader("# a 2-cycle and a self loop\n0 1\n1 0\n\n2 2\n")
	eng, err := extscc.New(extscc.WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.TextSource(input))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.NumNodes != 3 || res.NumSCCs != 2 {
		t.Fatalf("got %d nodes, %d SCCs; want 3 and 2", res.NumNodes, res.NumSCCs)
	}
	m, err := res.LabelMap()
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != m[1] || m[0] == m[2] {
		t.Fatalf("unexpected grouping: %v", m)
	}
}

func TestTextSourceMalformed(t *testing.T) {
	eng, err := extscc.New(extscc.WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), extscc.TextSource(strings.NewReader("0 1\nbroken\n"))); err == nil {
		t.Fatal("expected an error for a malformed line")
	}
}

func TestGeneratorSource(t *testing.T) {
	eng, err := extscc.New(extscc.WithTempDir(t.TempDir()), extscc.WithNodeBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.GeneratorSource(extscc.GeneratorSpec{Kind: "paper"}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.NumNodes != 13 || res.NumSCCs != 5 {
		t.Fatalf("paper example: got %d nodes, %d SCCs; want 13 and 5", res.NumNodes, res.NumSCCs)
	}
	if _, err := eng.Run(context.Background(), extscc.GeneratorSource(extscc.GeneratorSpec{Kind: "bogus"})); err == nil {
		t.Fatal("expected an error for an unknown generator kind")
	}
}

// TestGeneratorSpecRejectsBadSizes pins the sizes no generator can honour:
// each spec fails with an error naming its kind and value, within a
// deadline (a one-node random graph used to spin forever), and leaves no
// file behind.
func TestGeneratorSpecRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		spec extscc.GeneratorSpec
		want string
	}{
		{extscc.GeneratorSpec{Kind: "random", Nodes: 1}, "got 1"},
		{extscc.GeneratorSpec{Kind: "dag", Nodes: 1}, "got 1"},
		{extscc.GeneratorSpec{Kind: "random", Nodes: -5}, "-5"},
		{extscc.GeneratorSpec{Kind: "cycle", Nodes: -5}, "-5"},
		{extscc.GeneratorSpec{Kind: "path", Nodes: -5}, "-5"},
		{extscc.GeneratorSpec{Kind: "dag", Nodes: -5}, "-5"},
		{extscc.GeneratorSpec{Kind: "web", Nodes: -5}, "-5"},
		{extscc.GeneratorSpec{Kind: "large", Nodes: -5}, "-5"},
		{extscc.GeneratorSpec{Kind: "random", Degree: -2}, "-2"},
		{extscc.GeneratorSpec{Kind: "massive", Scale: -1}, "-1"},
	} {
		dir := t.TempDir()
		done := make(chan error, 1)
		go func() {
			_, _, err := tc.spec.WriteEdgeFileOn(extscc.OSStorage(), filepath.Join(dir, "g.edges"))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.spec.Kind) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%+v: got error %v, want one naming %q and %s", tc.spec, err, tc.spec.Kind, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%+v: no answer within 5s", tc.spec)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%+v: left %d file(s) behind", tc.spec, len(left))
		}
	}
}

func TestEMSCCDoesNotConvergeOnDAG(t *testing.T) {
	// A small memory budget (8192-edge partitions) forces EM-SCC to
	// partition the 9000-edge DAG; no partition contains a contractible SCC,
	// so the heuristic cannot make progress (the paper's Case-2).
	eng, err := extscc.New(
		extscc.WithAlgorithm("em-scc"),
		extscc.WithMemory(128<<10),
		extscc.WithBlockSize(16<<10),
		extscc.WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), extscc.SliceSource(graphgen.DAGLayered(3000, 9000, 1)))
	if !errors.Is(err, extscc.ErrDidNotConverge) {
		t.Fatalf("expected ErrDidNotConverge, got %v", err)
	}
}

func TestExportLabels(t *testing.T) {
	dir := t.TempDir()
	eng, err := extscc.New(extscc.WithTempDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Cycle(10)))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "exported.scc")
	if err := res.ExportLabels(out); err != nil {
		t.Fatal(err)
	}
	if res.LabelPath != out {
		t.Fatalf("LabelPath not updated: %q", res.LabelPath)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	// The exported file must survive Close and still hold all 10 labels.
	labels, err := recio.ReadAll(out, record.LabelCodec{}, mustCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 10 {
		t.Fatalf("exported label file has %d records, want 10", len(labels))
	}
}

func mustCfg(t *testing.T) iomodel.Config {
	t.Helper()
	cfg, err := iomodel.DefaultConfig().Validate()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestWithWorkersMatchesSequential pins that WithWorkers is inert: at every
// count the labelling and every accounted I/O are those of WithWorkers(1),
// and Stats.Workers reports 1.
func TestWithWorkersMatchesSequential(t *testing.T) {
	edges := graphgen.Random(180, 540, 17)
	runWith := func(workers int) ([]extscc.Label, extscc.Stats) {
		eng, err := extscc.New(
			extscc.WithAlgorithm("ext-scc-op"),
			extscc.WithNodeBudget(30), // force several contraction iterations
			extscc.WithWorkers(workers),
			extscc.WithTempDir(t.TempDir()),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), extscc.SliceSource(edges))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		defer res.Close()
		labels, err := res.Labels()
		if err != nil {
			t.Fatal(err)
		}
		return labels, res.Stats
	}

	seqLabels, seqStats := runWith(1)
	if seqStats.Workers != 1 {
		t.Fatalf("Stats.Workers = %d, want 1", seqStats.Workers)
	}
	for _, workers := range []int{2, 4} {
		labels, stats := runWith(workers)
		if stats.Workers != 1 {
			t.Errorf("workers=%d: Stats.Workers = %d, want 1", workers, stats.Workers)
		}
		if len(labels) != len(seqLabels) {
			t.Fatalf("workers=%d: %d labels, want %d", workers, len(labels), len(seqLabels))
		}
		for i := range labels {
			if labels[i] != seqLabels[i] {
				t.Fatalf("workers=%d: label %d = %v, sequential %v", workers, i, labels[i], seqLabels[i])
			}
		}
		if stats.TotalIOs != seqStats.TotalIOs || stats.RandomIOs != seqStats.RandomIOs ||
			stats.BytesRead != seqStats.BytesRead || stats.BytesWritten != seqStats.BytesWritten ||
			stats.FilesCreated != seqStats.FilesCreated {
			t.Errorf("workers=%d: I/O accounting differs from workers=1:\n  1: %+v\n  %d: %+v", workers, seqStats, workers, stats)
		}
	}
}

// TestWithWorkersRejectsNegative verifies option validation.
func TestWithWorkersRejectsNegative(t *testing.T) {
	if _, err := extscc.New(extscc.WithWorkers(-1)); err == nil {
		t.Fatal("WithWorkers(-1) should be rejected")
	}
}

// TestRunReportsPhases checks per-phase profiling is always on: every run
// surfaces a stage phase and — on a contracting workload — a contract phase,
// each with a positive invocation count.
func TestRunReportsPhases(t *testing.T) {
	eng, err := extscc.New(
		extscc.WithNodeBudget(40), // forces several contraction iterations
		extscc.WithStorage(extscc.MemStorage()),
		extscc.WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), extscc.SliceSource(graphgen.Random(220, 660, 11), 500, 501))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	phases := res.Stats.Phases
	if len(phases) == 0 {
		t.Fatal("run reported no phases")
	}
	got := map[string]extscc.PhaseStat{}
	for _, p := range phases {
		got[p.Name] = p
	}
	for _, name := range []string{"stage", "contract", "sort"} {
		p, ok := got[name]
		if !ok {
			t.Errorf("run reported no %q phase (got %v)", name, phases)
			continue
		}
		if p.Count <= 0 {
			t.Errorf("phase %q has count %d, want > 0", name, p.Count)
		}
		if p.Wall < 0 {
			t.Errorf("phase %q has negative wall time %v", name, p.Wall)
		}
	}
}

// slowSource delays Open before delegating to its wrapped Source.
type slowSource struct {
	extscc.Source
	delay time.Duration
}

func (s slowSource) Open(ctx context.Context, env extscc.SourceEnv) (extscc.GraphFiles, error) {
	time.Sleep(s.delay)
	return s.Source.Open(ctx, env)
}

// TestDurationCoversStaging checks Stats.Duration is the wall time of the
// whole Run: a Source that spends 50ms staging must show in it.
func TestDurationCoversStaging(t *testing.T) {
	const delay = 50 * time.Millisecond
	eng, err := extscc.New(
		extscc.WithStorage(extscc.MemStorage()),
		extscc.WithTempDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	src := slowSource{Source: extscc.SliceSource(graphgen.Random(50, 120, 3)), delay: delay}
	res, err := eng.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Stats.Duration < delay {
		t.Fatalf("Stats.Duration = %v, want at least the %v staging took", res.Stats.Duration, delay)
	}
}
