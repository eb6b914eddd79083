// Command sccbench regenerates the paper's evaluation figures.  Each
// experiment sweeps one parameter and prints a table with one row per
// (parameter value, algorithm) pair, reporting wall-clock time and block
// I/Os — the quantities plotted in Figs. 6-9 of the paper.
//
// Usage:
//
//	sccbench -experiment fig6
//	sccbench -experiment all -quick -csv results.csv
//	sccbench -experiment fig7 -quick -compare-codec -json BENCH_codec.json \
//	         -baseline bench/baseline.json
//
// -compare-storage runs the experiment on the OS backend and on the
// in-memory backend and fails unless both agree on every SCC count and
// every accounted I/O count (the mem ≡ os equivalence guarantee); it then
// reports the wall-clock speedup.  -compare-shards runs it at 1, 2 and 4
// compute shards and fails unless every completed point agrees on its SCC
// count.
// -compare-codec runs the experiment under the fixed and varint record
// codecs and fails unless both produce identical SCC results AND varint pays
// for itself in the I/O model: it must cut the pipeline bytes written by at
// least 30% while lowering the block I/O count.  -json writes all
// measurements as a JSON report; -baseline gates the OS-backend
// measurements against a committed report and exits non-zero on a
// regression beyond -tolerance.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

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
	storageName := cliflags.Storage()
	compareStorage := flag.Bool("compare-storage", false, "run on the os and mem backends, verify identical SCCs and I/O counts, report the speedup")
	codecName := cliflags.Codec()
	retry := cliflags.Retry()
	shards := flag.Int("shards", 0, "compute-shard count for the sharded contraction pre-pass (0 = unsharded)")
	compareShards := flag.Bool("compare-shards", false, "run at 1, 2 and 4 compute shards, each on one fresh in-memory backend, verify identical SCC counts, and report the wall-clock speedup")
	compareCodec := flag.Bool("compare-codec", false, "run with the fixed and varint codecs, verify identical SCCs, and report the byte and block-I/O reductions (fails unless varint cuts pipeline bytes by >= 30% with fewer block I/Os)")
	jsonPath := flag.String("json", "", "write measurements as a JSON report to this file")
	baselinePath := flag.String("baseline", "", "gate the measurements against this committed JSON report")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional I/O regression against -baseline")
	flag.Parse()

	if *compareStorage && *storageName != "" {
		log.Fatal("-compare-storage runs on both backends; do not combine it with -storage")
	}
	if *compareCodec && *compareStorage {
		log.Fatal("-compare-codec is a separate gate; run it as its own invocation")
	}
	if *compareCodec && *codecName != "" {
		log.Fatal("-compare-codec runs every codec family; do not combine it with -codec")
	}
	if *compareShards && (*compareStorage || *compareCodec) {
		log.Fatal("-compare-shards is a separate gate; run it as its own invocation")
	}
	if *compareShards && (*storageName != "" || *shards != 0) {
		log.Fatal("-compare-shards picks its own backends and shard counts; do not combine it with -storage or -shards")
	}
	if *baselinePath != "" && *compareShards {
		log.Fatal("-baseline gates unsharded measurements; run -compare-shards without it")
	}
	if *baselinePath != "" && !*compareCodec {
		// The committed baseline is recorded by `make bench-baseline` under
		// -compare-codec, so it holds the measurement keys of both codec
		// families; a single-codec run would misreport the other family's
		// points as missing.
		log.Fatal("-baseline requires -compare-codec: the committed baseline holds both codec sweeps, and both halves are gated")
	}
	backend, err := cliflags.ResolveStorage(*storageName)
	if err != nil {
		log.Fatal(err)
	}
	if *baselinePath != "" && !*compareStorage && backend.Name() != "os" {
		// Committed baselines are recorded on the OS backend's keys; a
		// non-OS run would report every baseline point as missing even
		// though the accounted I/O counts are identical (mem ≡ os).
		log.Fatalf("-baseline gates the os-backend measurements; rerun without -storage=%s (the I/O counts are identical across backends)", backend.Name())
	}
	runOnce := func(b storage.Backend, codec string, shardCount int) ([]bench.Measurement, error) {
		cfg := bench.Config{Scale: *scale, Quick: *quick, TempDir: *tempDir, Storage: b, Codec: codec, Retries: *retry, Shards: shardCount}
		if *experiment == "all" {
			return bench.RunAll(cfg)
		}
		return bench.Run(*experiment, cfg)
	}

	// Gate failures are collected, not fatal, so the table, CSV and JSON
	// report are always emitted first — CI uploads them as the diagnostic
	// artifact of a failing run.
	var gateFailures []string
	var ms []bench.Measurement
	if *compareStorage {
		osMs, err := runOnce(storage.OS(), *codecName, *shards)
		if err != nil {
			log.Fatal(err)
		}
		memMs, err := runOnce(storage.NewMem(), *codecName, *shards)
		if err != nil {
			log.Fatal(err)
		}
		ms = append(osMs, memMs...)
		if violations := bench.VerifyStorageEquivalence(ms); len(violations) > 0 {
			for _, v := range violations {
				log.Printf("storage-equivalence violation: %s", v)
			}
			gateFailures = append(gateFailures,
				fmt.Sprintf("storage=os and storage=mem disagree on %d measurement(s)", len(violations)))
		} else {
			osTotal, memTotal := totalDuration(osMs), totalDuration(memMs)
			speedup := "n/a"
			if memTotal > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(osTotal)/float64(memTotal))
			}
			fmt.Printf("storage comparison: os took %s, mem took %s (speedup %s); SCCs and I/O counts identical\n",
				osTotal.Round(time.Millisecond), memTotal.Round(time.Millisecond), speedup)
		}
	} else if *compareCodec {
		for _, family := range []string{"fixed", "varint"} {
			got, err := runOnce(backend, family, *shards)
			if err != nil {
				log.Fatal(err)
			}
			ms = append(ms, got...)
		}
		if violations := bench.VerifyCodecEquivalence(ms); len(violations) > 0 {
			for _, v := range violations {
				log.Printf("codec-equivalence violation: %s", v)
			}
			gateFailures = append(gateFailures,
				fmt.Sprintf("codec families disagree on %d measurement(s)", len(violations)))
		}
		s := bench.CompareCodecs(ms, "fixed", "varint")
		if s.Points == 0 {
			gateFailures = append(gateFailures, "codec comparison: no pipeline point completed under both fixed and varint")
		} else {
			fmt.Printf("codec comparison (varint) over %d point(s): bytes written %d -> %d (%.1f%% reduction), block I/Os %d -> %d (%.1f%% reduction)\n",
				s.Points, s.BaseBytes, s.OtherBytes, s.BytesReduction()*100, s.BaseIOs, s.OtherIOs, s.IOReduction()*100)
			if s.BytesReduction() < 0.30 {
				gateFailures = append(gateFailures,
					fmt.Sprintf("varint codec reduced pipeline bytes written by only %.1f%% (gate: >= 30%%)", s.BytesReduction()*100))
			}
			if s.OtherIOs >= s.BaseIOs {
				gateFailures = append(gateFailures,
					fmt.Sprintf("varint codec did not lower pipeline block I/Os (fixed %d, varint %d)", s.BaseIOs, s.OtherIOs))
			}
		}
	} else if *compareShards {
		counts := []int{1, 2, 4}
		perCount := map[int][]bench.Measurement{}
		for _, n := range counts {
			got, err := runOnce(storage.NewMem(), *codecName, n)
			if err != nil {
				log.Fatal(err)
			}
			perCount[n] = got
			ms = append(ms, got...)
		}
		if violations := bench.VerifyShardEquivalence(ms); len(violations) > 0 {
			for _, v := range violations {
				log.Printf("shard-equivalence violation: %s", v)
			}
			gateFailures = append(gateFailures,
				fmt.Sprintf("shard counts disagree on %d measurement(s)", len(violations)))
		} else {
			base := totalDuration(perCount[1])
			for _, n := range counts[1:] {
				d := totalDuration(perCount[n])
				speedup := "n/a"
				if d > 0 {
					speedup = fmt.Sprintf("%.2fx", float64(base)/float64(d))
				}
				fmt.Printf("shard comparison: shards=1 took %s, shards=%d took %s (speedup %s); SCC counts identical\n",
					base.Round(time.Millisecond), n, d.Round(time.Millisecond), speedup)
			}
		}
	} else {
		var err error
		ms, err = runOnce(backend, *codecName, *shards)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Print(bench.FormatTable(ms))
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

	cfg := bench.Config{Scale: *scale, Quick: *quick, TempDir: *tempDir, Storage: backend, Codec: *codecName, Retries: *retry, Shards: *shards}
	report := bench.NewReport(*experiment, cfg, ms)
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("JSON report written to %s\n", *jsonPath)
	}

	if *baselinePath != "" {
		base, err := bench.LoadReport(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		if violations := bench.CompareToBaseline(report, base, *tolerance); len(violations) > 0 {
			for _, v := range violations {
				log.Printf("baseline violation: %s", v)
			}
			gateFailures = append(gateFailures,
				fmt.Sprintf("%d regression(s) beyond %.0f%% against %s", len(violations), *tolerance*100, *baselinePath))
		} else {
			fmt.Printf("baseline check passed against %s (tolerance %.0f%%)\n", *baselinePath, *tolerance*100)
		}
	}

	if len(gateFailures) > 0 {
		for _, f := range gateFailures {
			log.Print(f)
		}
		os.Exit(1)
	}
}

// totalDuration sums the wall-clock of all non-INF measurements.
func totalDuration(ms []bench.Measurement) time.Duration {
	var d time.Duration
	for _, m := range ms {
		if !m.INF {
			d += m.Duration
		}
	}
	return d
}
