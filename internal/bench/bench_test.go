package bench

import (
	"strings"
	"testing"
	"time"

	"extscc/internal/storage"
)

func quickConfig(t *testing.T) Config {
	t.Helper()
	return Config{Scale: 100000, Quick: true, TempDir: t.TempDir(), DFSBudget: time.Second, DFSMaxIOs: 50_000}
}

func TestExperimentsListedAndRunnable(t *testing.T) {
	if len(Experiments()) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(Experiments()))
	}
	if _, err := Run("nope", quickConfig(t)); err == nil {
		t.Fatal("expected an error for an unknown experiment")
	}
}

func TestTable1(t *testing.T) {
	ms, err := Run("table1", quickConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(ms))
	}
	for _, m := range ms {
		if m.Note == "" {
			t.Fatalf("row %q has no parameter note", m.Series)
		}
	}
}

func TestAblationExperiment(t *testing.T) {
	ms, err := Run("ablation", quickConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("expected 4 ablation rows, got %d", len(ms))
	}
	// All variants must agree on the number of SCCs.
	for _, m := range ms[1:] {
		if m.NumSCCs != ms[0].NumSCCs {
			t.Fatalf("SCC counts disagree across variants: %v vs %v", m, ms[0])
		}
	}
	// Ext-SCC variants never do random I/O.
	for _, m := range ms {
		if m.RandomIOs != 0 {
			t.Fatalf("%s performed random I/O", m.Series)
		}
	}
}

// TestUnshardedExperimentsSkipShards runs the experiments without a
// sharded path at Shards: 2 on a store whose every operation fails: each
// returns no rows and no error without running, and a sharded experiment
// fails on the same store.
func TestUnshardedExperimentsSkipShards(t *testing.T) {
	c := quickConfig(t)
	c.Shards = 2
	c.Storage = storage.NewFault(storage.NewMem(), storage.NewFaultPlan(&storage.FaultRule{N: 1, Count: 0}))
	for _, exp := range []string{"emscc", "ablation"} {
		if HasShardedPath(exp) {
			t.Fatalf("%s claims a sharded path", exp)
		}
		if ms, err := Run(exp, c); err != nil || len(ms) != 0 {
			t.Fatalf("Run(%q) at Shards 2: %d rows, error %v; want none", exp, len(ms), err)
		}
	}
	if _, err := Run("fig7", c); err == nil {
		t.Fatal("fig7 ran on a store that fails every operation")
	}
}

func TestEMSCCExperiment(t *testing.T) {
	ms, err := Run("emscc", quickConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(ms))
	}
	// The DAG case must be reported as not converged (Case-2).
	if !ms[0].INF {
		t.Fatalf("EM-SCC unexpectedly converged on the DAG workload: %+v", ms[0])
	}
}

func TestFig7ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow in -short mode")
	}
	cfg := quickConfig(t)
	ms, err := Run("fig7", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Collect Ext-SCC-Op I/Os in sweep order; more memory must not increase
	// the iteration count, and the largest budget needs no iterations at all.
	var ops []Measurement
	for _, m := range ms {
		if m.Series == AlgoExtOp {
			ops = append(ops, m)
		}
	}
	if len(ops) != 4 {
		t.Fatalf("expected 4 Ext-SCC-Op points, got %d", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Iterations > ops[i-1].Iterations {
			t.Fatalf("iterations increased with more memory: %+v", ops)
		}
	}
	if last := ops[len(ops)-1]; last.Iterations != 0 {
		t.Fatalf("budget above |V| should need no contraction, got %d iterations", last.Iterations)
	}
	// Every Ext measurement agrees on the SCC count.
	for _, m := range ms {
		if m.Series != AlgoDFS && m.NumSCCs != ops[0].NumSCCs {
			t.Fatalf("SCC count mismatch across runs: %+v", m)
		}
	}
}

func TestFormatTableAndCSV(t *testing.T) {
	ms := []Measurement{
		{Experiment: "fig6", Series: AlgoExtOp, X: "20%", Duration: time.Second, TotalIOs: 10, NumSCCs: 3},
		{Experiment: "fig6", Series: AlgoDFS, X: "20%", INF: true, Note: "exceeded budget"},
	}
	table := FormatTable(ms)
	if !strings.Contains(table, "fig6") || !strings.Contains(table, "INF") {
		t.Fatalf("table missing content:\n%s", table)
	}
	var b strings.Builder
	if err := WriteCSV(&b, ms); err != nil {
		t.Fatal(err)
	}
	csv := b.String()
	if !strings.Contains(csv, "experiment,x,algorithm") || !strings.Contains(csv, "Ext-SCC-Op") {
		t.Fatalf("csv missing content:\n%s", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("csv should have a header and 2 rows:\n%s", csv)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1000 || c.DFSBudget == 0 || c.DFSMaxIOs == 0 || c.TempDir == "" {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
