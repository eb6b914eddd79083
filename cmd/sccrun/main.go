// Command sccrun computes the strongly connected components of an on-disk
// edge file with one of the registered algorithms and reports its time and
// I/O cost.  Algorithms are resolved through the extscc registry; run with
// -algo help to list them.
//
// Usage:
//
//	sccrun -algo ext-scc-op -memory 4194304 -in web.edges -out web.scc
//	sccrun -algo dfs-scc -max-ios 2000000 -in web.edges
//	sccrun -storage shard=os:/vol0,os:/vol1 -shards 2 -in web.edges
//	sccrun -algo help
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"extscc"
	"extscc/internal/cliflags"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sccrun: ")

	algo := flag.String("algo", "ext-scc-op", "algorithm to run (\"help\" lists the registry)")
	in := flag.String("in", "", "input edge file (required)")
	out := flag.String("out", "", "output label file (optional; discarded if empty)")
	memory := cliflags.Memory()
	block := cliflags.Block()
	nodeBudget := cliflags.NodeBudget()
	workers := cliflags.Workers(0)
	tempDir := flag.String("tmp", os.TempDir(), "directory for intermediate files")
	storageName := cliflags.Storage()
	codecName := cliflags.Codec()
	retry := cliflags.Retry()
	profile := flag.Bool("profile", false, "print the per-phase wall-clock/allocation profile after the run")
	shards := flag.Int("shards", 0, "split the contraction into this many concurrent per-node-range shards (0 = unsharded)")
	maxDur := flag.Duration("max-duration", 0, "abort after this duration (0 = unlimited)")
	maxIOs := flag.Int64("max-ios", 0, "abort after this many block I/Os, for algorithms that support the cap (0 = unlimited)")
	flag.Parse()

	if *algo == "help" || *algo == "list" {
		cliflags.ListAlgorithms(os.Stdout)
		return
	}
	if *in == "" {
		log.Fatal("-in is required")
	}
	backend, err := cliflags.ResolveStorage(*storageName)
	if err != nil {
		log.Fatal(err)
	}

	input, unstage, err := cliflags.StageInput(backend, "sccrun", *in)
	if err != nil {
		log.Fatal(err)
	}
	defer unstage()

	eng, err := extscc.New(
		extscc.WithAlgorithm(*algo),
		extscc.WithMemory(*memory),
		extscc.WithBlockSize(*block),
		extscc.WithNodeBudget(*nodeBudget),
		extscc.WithWorkers(*workers),
		extscc.WithTempDir(*tempDir),
		extscc.WithStorage(backend),
		extscc.WithCodec(*codecName),
		extscc.WithRetry(*retry),
		extscc.WithShards(*shards),
		extscc.WithMaxIOs(*maxIOs),
		extscc.WithProgress(func(p extscc.Progress) {
			fmt.Printf("  iteration %d: |V|=%d |E|=%d removed=%d preserved=%d added=%d\n",
				p.Iteration, p.NumNodes, p.NumEdges, p.NumRemoved, p.PreservedEdges, p.AddedEdges)
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	if *maxDur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *maxDur)
		defer cancel()
	}

	res, err := eng.Run(ctx, extscc.FileSource(input))
	switch {
	case errors.Is(err, extscc.ErrDidNotConverge):
		log.Fatalf("%s: %v", *algo, err)
	case errors.Is(err, extscc.ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded):
		log.Fatalf("%s exceeded its budget: %v", *algo, err)
	case errors.Is(err, extscc.ErrCorrupt):
		log.Fatalf("corrupt input or intermediate data (no labelling was produced): %v", err)
	case err != nil:
		log.Fatal(err)
	}
	defer res.Close()

	fmt.Printf("graph: %d nodes, %d edges\n", res.NumNodes, res.NumEdges)
	if res.Stats.ContractionIterations > 0 {
		fmt.Printf("contraction iterations: %d\n", res.Stats.ContractionIterations)
	}
	fmt.Printf("SCCs: %d\ntime: %s (%d workers, %s storage, %s codec)\nI/Os: %d (random %d)\nbytes: read %d, written %d (compression %.2fx)\n",
		res.NumSCCs, res.Stats.Duration.Round(time.Millisecond), res.Stats.Workers, res.Stats.Storage, res.Stats.Codec,
		res.Stats.TotalIOs, res.Stats.RandomIOs, res.Stats.BytesRead, res.Stats.BytesWritten, res.Stats.CompressionRatio)
	if res.Stats.Retries > 0 {
		fmt.Printf("retries: %d transient storage failures recovered\n", res.Stats.Retries)
	}
	if *profile {
		fmt.Print("phases:\n")
		cliflags.PrintPhases(os.Stdout, res.Stats.Phases)
	}

	if *out != "" {
		if backend.Name() == "os" {
			if err := res.ExportLabels(*out); err != nil {
				log.Fatal(err)
			}
		} else {
			// The label file lives on the run's backend; copy the bytes back
			// onto the local filesystem.
			if err := cliflags.ExportFile(backend, *out, res.LabelPath); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("labels written to %s\n", *out)
	}
}
