// Command sccserve turns one SCC computation into a long-lived query server.
// It ingests a graph (an edge file or a built-in generator), computes its
// strongly connected components with the configured algorithm, materialises
// the condensation DAG and a 2-hop reachability index on the chosen storage
// backend, and then answers HTTP/JSON queries until terminated:
//
//	GET /scc/{node}     SCC label of a node
//	GET /same/{u}/{v}   do two nodes share a component?
//	GET /reach/{u}/{v}  does u reach v?
//	GET /healthz        liveness
//	GET /stats          engine + index-build + serving statistics
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight queries drain
// and every file the server materialised is removed.
//
// Usage:
//
//	sccserve -in web.edges -addr :8080
//	sccserve -gen web -nodes 50000 -storage mem -codec fixed
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"extscc"
	"extscc/internal/cliflags"
	"extscc/internal/iomodel"
	"extscc/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sccserve: ")

	in := flag.String("in", "", "input edge file (this or -gen is required)")
	gen := flag.String("gen", "", "generate the input instead: web, random, cycle, path, dag, paper, massive, large, small")
	nodes := flag.Int("nodes", 0, "node count for -gen (0 = preset default)")
	degree := flag.Int("degree", 0, "average degree for -gen (0 = preset default)")
	seed := flag.Int64("seed", 1, "seed for -gen")
	algo := flag.String("algo", "", "algorithm to ingest with (\"\" = engine default; \"help\" lists the registry)")
	memory := cliflags.Memory()
	block := cliflags.Block()
	tempDir := flag.String("tmp", "", "directory for materialised files (\"\" = system temp)")
	storageName := cliflags.Storage()
	codecName := cliflags.Codec()
	retry := cliflags.Retry()
	addr := flag.String("addr", "127.0.0.1:0", "HTTP listen address")
	batchMax := flag.Int("batch-max", 256, "max point lookups per sweep")
	cacheSize := flag.Int("cache", 4096, "hot-label LRU capacity (negative disables)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes runtime internals; enable only on trusted listeners)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.Parse()

	if *algo == "help" || *algo == "list" {
		cliflags.ListAlgorithms(os.Stdout)
		return
	}
	if (*in == "") == (*gen == "") {
		log.Fatal("exactly one of -in or -gen is required")
	}
	backend, err := cliflags.ResolveStorage(*storageName)
	if err != nil {
		log.Fatal(err)
	}

	var src extscc.Source
	if *gen != "" {
		src = extscc.GeneratorSource(extscc.GeneratorSpec{
			Kind: *gen, Nodes: *nodes, Degree: *degree, Seed: *seed, Retries: *retry,
		})
	} else {
		staged, unstage, err := cliflags.StageInput(backend, "sccserve", *in)
		if err != nil {
			log.Fatal(err)
		}
		defer unstage()
		src = extscc.FileSource(staged)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	srv, err := serve.New(ctx, serve.Options{
		Source:       src,
		Algorithm:    *algo,
		Memory:       *memory,
		BlockSize:    *block,
		Retries:      *retry,
		Codec:        *codecName,
		Storage:      backend,
		TempDir:      *tempDir,
		Addr:         *addr,
		MaxBatch:     *batchMax,
		CacheSize:    *cacheSize,
		DrainTimeout: *drain,
		EnablePprof:  *pprofFlag,
	})
	if err != nil {
		log.Fatal(err)
	}

	bound, err := srv.Listen()
	if err != nil {
		srv.Close()
		log.Fatal(err)
	}
	fmt.Printf("ingested in %s (%s storage, %s codec); listening on http://%s\n",
		time.Since(start).Round(time.Millisecond), backend.Name(), effectiveCodec(*codecName), bound)

	if err := srv.Serve(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

// effectiveCodec names the codec family an empty -codec resolves to.
func effectiveCodec(name string) string {
	if name == "" {
		return iomodel.Config{}.CodecFamily()
	}
	return name
}
