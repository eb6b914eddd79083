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
	if v := CompareToBaseline(base, base); len(v) != 0 {
		t.Fatalf("self-comparison reported violations: %v", v)
	}

	// Within tolerance and strictly better: no violations.
	better := sampleMeasurements()
	better[0].TotalIOs = 1200 // +20% < BaselineTolerance
	if v := CompareToBaseline(NewReport("fig7", cfg, better), base); len(v) != 0 {
		t.Fatalf("within-tolerance run reported violations: %v", v)
	}

	// Beyond tolerance: exactly one violation naming the point.
	worse := sampleMeasurements()
	worse[0].TotalIOs = 1300 // +30% > BaselineTolerance
	v := CompareToBaseline(NewReport("fig7", cfg, worse), base)
	if len(v) != 1 || !strings.Contains(v[0], "regressed") || !strings.Contains(v[0], AlgoExtOp) {
		t.Fatalf("expected one regression violation, got %v", v)
	}

	// Missing point and flipped INF are violations too.
	v = CompareToBaseline(NewReport("fig7", cfg, sampleMeasurements()[:1]), base)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("expected a missing-point violation, got %v", v)
	}
	flipped := sampleMeasurements()
	flipped[1].INF = false
	v = CompareToBaseline(NewReport("fig7", cfg, flipped), base)
	if len(v) != 1 || !strings.Contains(v[0], "INF flipped") {
		t.Fatalf("expected an INF violation, got %v", v)
	}
}

func TestCompareToBaselineRandomIOs(t *testing.T) {
	cfg := Config{Quick: true, Scale: 1000}
	base := NewReport("fig7", cfg, sampleMeasurements())

	// The baseline records zero random I/Os (the paper's invariant for the
	// Ext variants); any new random I/O is a regression.
	noisy := sampleMeasurements()
	noisy[0].RandomIOs = 5
	v := CompareToBaseline(NewReport("fig7", cfg, noisy), base)
	if len(v) != 1 || !strings.Contains(v[0], "random I/Os regressed") {
		t.Fatalf("expected a random-I/O violation, got %v", v)
	}
}

func TestCompareToBaselineWorkloadMismatch(t *testing.T) {
	quickCfg := Config{Quick: true, Scale: 1000}
	fullCfg := Config{Quick: false, Scale: 1000}
	base := NewReport("fig7", quickCfg, sampleMeasurements())
	v := CompareToBaseline(NewReport("fig7", fullCfg, sampleMeasurements()), base)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("expected a workload-mismatch violation, got %v", v)
	}
	v = CompareToBaseline(NewReport("fig6", quickCfg, sampleMeasurements()), base)
	if len(v) != 1 || !strings.Contains(v[0], "workload mismatch") {
		t.Fatalf("expected a workload-mismatch violation for a different experiment, got %v", v)
	}
}
