// Benchmarks, one per table/figure of the paper's evaluation (Section VIII).
// Each benchmark runs the corresponding experiment of internal/bench in quick
// mode (scaled-down workloads) and reports, besides ns/op, the aggregate
// block-I/O count of the Ext-SCC-Op series as "ios/op" so that trends across
// benchmarks mirror the figures.  Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale sweeps (and the per-series tables) are produced by
// cmd/sccbench; see its package documentation and the README's Testing & CI
// section.
package extscc_test

import (
	"testing"

	"extscc/internal/bench"
)

func benchConfig(b *testing.B) bench.Config {
	b.Helper()
	return bench.Config{Scale: 20000, Quick: true, TempDir: b.TempDir()}
}

// runExperiment executes one bench experiment b.N times and reports the total
// and random I/O of the Ext-SCC-Op series as benchmark metrics.
func runExperiment(b *testing.B, experiment string) {
	b.Helper()
	cfg := benchConfig(b)
	var totalIOs, randomIOs, runs int64
	for i := 0; i < b.N; i++ {
		ms, err := bench.Run(experiment, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ms {
			if m.Series == bench.AlgoExtOp && !m.INF {
				totalIOs += m.TotalIOs
				randomIOs += m.RandomIOs
				runs++
			}
		}
	}
	if runs > 0 {
		b.ReportMetric(float64(totalIOs)/float64(b.N), "ios/op")
		b.ReportMetric(float64(randomIOs)/float64(b.N), "randios/op")
	}
}

// BenchmarkTable1Generators materialises the three Table I dataset families
// (scaled) and reports the generation cost.
func BenchmarkTable1Generators(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run("table1", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_WebGraphVaryEdgePercent reproduces Fig. 6(a)/(b): the
// WEBSPAM-UK2007 stand-in with 20%-100% of its edges, fixed memory.
func BenchmarkFig6_WebGraphVaryEdgePercent(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7_WebGraphVaryMemory reproduces Fig. 7(a)/(b): the web graph
// under increasing memory budgets, including the no-contraction cliff.
func BenchmarkFig7_WebGraphVaryMemory(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8_MassiveSCCVaryMemory reproduces Fig. 8(a)/(b).
func BenchmarkFig8_MassiveSCCVaryMemory(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8_LargeSCCVaryMemory reproduces Fig. 8(c)/(d).
func BenchmarkFig8_LargeSCCVaryMemory(b *testing.B) { runExperiment(b, "fig8c") }

// BenchmarkFig8_SmallSCCVaryMemory reproduces Fig. 8(e)/(f).
func BenchmarkFig8_SmallSCCVaryMemory(b *testing.B) { runExperiment(b, "fig8e") }

// BenchmarkFig9_VaryNodes reproduces Fig. 9(a)/(b): Large-SCC, |V| sweep.
func BenchmarkFig9_VaryNodes(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9_VaryDegree reproduces Fig. 9(c)/(d): average degree 2-6.
func BenchmarkFig9_VaryDegree(b *testing.B) { runExperiment(b, "fig9c") }

// BenchmarkFig9_VarySCCSize reproduces Fig. 9(e)/(f): planted SCC size sweep.
func BenchmarkFig9_VarySCCSize(b *testing.B) { runExperiment(b, "fig9e") }

// BenchmarkFig9_VarySCCCount reproduces Fig. 9(g)/(h): planted SCC count 30-70.
func BenchmarkFig9_VarySCCCount(b *testing.B) { runExperiment(b, "fig9g") }

// BenchmarkEMSCCNonTermination exercises the Section III discussion: EM-SCC
// on a DAG (Case-2) and on the Large-SCC dataset (Case-1), reporting DNF runs.
func BenchmarkEMSCCNonTermination(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run("emscc", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptimizations compares Ext-SCC, Ext-SCC-Op, and Ext-SCC-Op
// with individual Section VII optimisations disabled.
func BenchmarkAblationOptimizations(b *testing.B) { runExperiment(b, "ablation") }
