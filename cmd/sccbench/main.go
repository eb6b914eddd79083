// Command sccbench regenerates the paper's evaluation figures.  Each
// experiment sweeps one parameter and prints a table with one row per
// (parameter value, algorithm) pair, reporting wall-clock time and block
// I/Os — the quantities plotted in Figs. 6-9 of the paper.
//
// Usage:
//
//	sccbench -experiment fig6
//	sccbench -experiment all -quick -csv results.csv
//	sccbench -experiment fig7 -quick -storage os,mem -codec fixed,varint \
//	         -shards 1,2,4 -json BENCH_quick.json -baseline bench/baseline.json
//
// Every run is a grid: -storage, -codec and -shards each take a
// comma-separated list, and the experiment runs at every point of their
// cross product; one value each is a plain run.  Two measurements of one
// (experiment, x, series) point that differ on one axis must keep that
// axis's invariant (bench.CheckGrid):
//
//   - storage: INF, the SCC partition, the iteration count and every
//     accounted I/O and byte count;
//   - codec: INF, the SCC partition and the iteration count, and varint must
//     write at least 30% fewer bytes than fixed and charge fewer block I/Os;
//   - shards: the SCC partition of every completed run.
//
// The emscc and ablation experiments have no sharded path: at a shard count
// above 1 they run nothing, and sccbench prints one "no sharded path,
// skipped" line for each.  table1 runs nothing at all, so its rows are
// printed once per grid.
//
// For every axis with more than one value sccbench prints the total wall
// time per value.  -json writes all measurements as a JSON report, and
// -baseline gates them against a committed report (a baseline point the
// grid did not run is a violation, an extra grid point never is).  The
// table, CSV and JSON report are written before a broken invariant or a
// regression exits with status 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"extscc/internal/bench"
	"extscc/internal/cliflags"
	"extscc/internal/storage"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sccbench: ")

	experiment := flag.String("experiment", "all", "experiment to run: all, "+fmt.Sprint(bench.Experiments()))
	scale := flag.Int("scale", 1000, "divide the paper's dataset sizes by this factor")
	quick := flag.Bool("quick", false, "shrink workloads further for a fast smoke run")
	tempDir := flag.String("tmp", os.TempDir(), "directory for graphs and intermediate files")
	csvPath := flag.String("csv", "", "also write measurements as CSV to this file")
	storageList := flag.String("storage", "", "comma-separated storage backends to run on: os (default; local disk), mem (fully in RAM)")
	codecList := flag.String("codec", "", "comma-separated record codecs to run with: varint (default), fixed")
	shardList := flag.String("shards", "0", "comma-separated compute-shard counts for the sharded contraction pre-pass (0 or 1 = unsharded)")
	retry := cliflags.Retry()
	jsonPath := flag.String("json", "", "write measurements as a JSON report to this file")
	baselinePath := flag.String("baseline", "", "gate the measurements against this committed JSON report")
	flag.Parse()

	var backends []storage.Backend
	for _, name := range strings.Split(*storageList, ",") {
		b, err := cliflags.ResolveStorage(name)
		if err != nil {
			log.Fatal(err)
		}
		backends = append(backends, b)
	}
	var shardCounts []int
	for _, s := range strings.Split(*shardList, ",") {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			log.Fatalf("-shards: %q is not a shard count", s)
		}
		shardCounts = append(shardCounts, n)
	}

	cfg := bench.Config{Scale: *scale, Quick: *quick, TempDir: *tempDir, Retries: *retry}
	ms, err := bench.RunGrid(*experiment, cfg, backends, strings.Split(*codecList, ","), shardCounts)
	if err != nil {
		log.Fatal(err)
	}

	exps := []string{*experiment}
	if *experiment == "all" {
		exps = bench.Experiments()
	}
	for _, n := range shardCounts {
		for _, exp := range exps {
			if n > 1 && !bench.HasShardedPath(exp) {
				fmt.Printf("%s: no sharded path, skipped at shards=%d\n", exp, n)
			}
		}
	}
	fmt.Print(bench.FormatTable(ms))
	fmt.Print(bench.Summary(ms))
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := bench.WriteCSV(f, ms); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("CSV written to %s\n", *csvPath)
	}
	report := bench.NewReport(*experiment, cfg, ms)
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("JSON report written to %s\n", *jsonPath)
	}

	failed := false
	for _, v := range bench.CheckGrid(ms) {
		log.Printf("grid violation: %s", v)
		failed = true
	}
	if *baselinePath != "" {
		base, err := bench.LoadReport(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		violations := bench.CompareToBaseline(report, base)
		for _, v := range violations {
			log.Printf("baseline violation: %s", v)
			failed = true
		}
		if len(violations) == 0 {
			fmt.Printf("baseline check passed against %s (tolerance %.0f%%)\n", *baselinePath, bench.BaselineTolerance*100)
		}
	}
	if failed {
		os.Exit(1)
	}
}
