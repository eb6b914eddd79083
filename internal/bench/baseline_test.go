package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleMeasurements() []Measurement {
	return []Measurement{
		{Experiment: "fig7", X: "M=0.50|V|", Series: AlgoExtOp, Duration: 2 * time.Second, TotalIOs: 1000, RandomIOs: 0, NumSCCs: 42},
		{Experiment: "fig7", X: "M=0.50|V|", Series: AlgoDFS, INF: true, Note: "exceeded budget"},
	}
}

func TestReportRoundTrip(t *testing.T) {
	cfg := Config{Quick: true, Scale: 1000}
	report := NewReport("fig7", cfg, sampleMeasurements())
	path := filepath.Join(t.TempDir(), "report.json")
	if err := report.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schema != ReportSchema || !loaded.Quick || loaded.Experiment != "fig7" {
		t.Fatalf("metadata lost in round trip: %+v", loaded)
	}
	if len(loaded.Entries) != 2 || loaded.Entries[0].TotalIOs != 1000 || !loaded.Entries[1].INF {
		t.Fatalf("entries lost in round trip: %+v", loaded.Entries)
	}
}

func TestCompareToBaseline(t *testing.T) {
	cfg := Config{Quick: true, Scale: 1000}
	base := NewReport("fig7", cfg, sampleMeasurements())

	// Identical run: no violations.
	if v := CompareToBaseline(base, base, 0.25); len(v) != 0 {
		t.Fatalf("self-comparison reported violations: %v", v)
	}

	// Within tolerance and strictly better: no violations.
	better := sampleMeasurements()
	better[0].TotalIOs = 1200 // +20% < 25%
	if v := CompareToBaseline(NewReport("fig7", cfg, better), base, 0.25); len(v) != 0 {
		t.Fatalf("within-tolerance run reported violations: %v", v)
	}

	// Beyond tolerance: exactly one violation naming the point.
	worse := sampleMeasurements()
	worse[0].TotalIOs = 1300 // +30% > 25%
	v := CompareToBaseline(NewReport("fig7", cfg, worse), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "regressed") || !strings.Contains(v[0], AlgoExtOp) {
		t.Fatalf("expected one regression violation, got %v", v)
	}

	// Missing point and flipped INF are violations too.
	v = CompareToBaseline(NewReport("fig7", cfg, sampleMeasurements()[:1]), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("expected a missing-point violation, got %v", v)
	}
	flipped := sampleMeasurements()
	flipped[1].INF = false
	v = CompareToBaseline(NewReport("fig7", cfg, flipped), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "INF flipped") {
		t.Fatalf("expected an INF violation, got %v", v)
	}
}

// TestVerifyWorkerEquivalence covers equivalenceViolations through the
// storage gate: runs of one sweep on two backends must agree on every SCC
// and I/O count, and each disagreement is one well-formed violation.
func TestVerifyWorkerEquivalence(t *testing.T) {
	onOS := sampleMeasurements()
	onMem := sampleMeasurements()
	for i := range onOS {
		onOS[i].Storage = "os"
		onMem[i].Storage = "mem"
		onMem[i].Duration /= 2 // faster is fine; I/Os identical
	}
	if v := VerifyStorageEquivalence(append(onOS, onMem...)); len(v) != 0 {
		t.Fatalf("equivalent runs reported violations: %v", v)
	}
	onMem[0].TotalIOs++
	v := VerifyStorageEquivalence(append(onOS, onMem...))
	if len(v) != 1 || !strings.Contains(v[0], "I/O counts differ") {
		t.Fatalf("expected an I/O-difference violation, got %v", v)
	}
	if strings.Contains(v[0], "%!") {
		t.Fatalf("violation message has a formatting bug: %v", v[0])
	}
	onMem[0].TotalIOs--
	onMem[0].NumSCCs++
	v = VerifyStorageEquivalence(append(onOS, onMem...))
	if len(v) != 1 || !strings.Contains(v[0], "SCC count differs") {
		t.Fatalf("expected an SCC-difference violation, got %v", v)
	}
}

func TestCompareToBaselineRandomIOs(t *testing.T) {
	cfg := Config{Quick: true, Scale: 1000}
	base := NewReport("fig7", cfg, sampleMeasurements())

	// The baseline records zero random I/Os (the paper's invariant for the
	// Ext variants); any new random I/O is a regression.
	noisy := sampleMeasurements()
	noisy[0].RandomIOs = 5
	v := CompareToBaseline(NewReport("fig7", cfg, noisy), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "random I/Os regressed") {
		t.Fatalf("expected a random-I/O violation, got %v", v)
	}
}

func TestCompareToBaselineWorkloadMismatch(t *testing.T) {
	quickCfg := Config{Quick: true, Scale: 1000}
	fullCfg := Config{Quick: false, Scale: 1000}
	base := NewReport("fig7", quickCfg, sampleMeasurements())
	v := CompareToBaseline(NewReport("fig7", fullCfg, sampleMeasurements()), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("expected a workload-mismatch violation, got %v", v)
	}
	v = CompareToBaseline(NewReport("fig6", quickCfg, sampleMeasurements()), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("expected a workload-mismatch violation for a different experiment, got %v", v)
	}
}
