# Targets mirror the CI jobs (.github/workflows/ci.yml) so any CI failure can
# be reproduced locally with one command.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint bench bench-baseline fuzz faultsweep serve-smoke microbench perfbench-test

all: lint test race

build:
	$(GO) build ./...

# Mirrors the `test` job (tier-1 verify).
test:
	$(GO) build ./...
	$(GO) test ./...

# Mirrors the perfbench step of the `test` job.  perfbench/ is its own module
# (it imports this one through `replace extscc => ../`), so the root
# `go test ./...` never compiles it; an API change could break the benchmark
# unnoticed without this.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Mirrors the `race` job: the concurrent shard solves of WithShards, the
# in-memory storage backend and the serving subsystem under the race
# detector, once per storage backend.
race:
	EXTSCC_STORAGE=os $(GO) test -race -short ./...
	EXTSCC_STORAGE=mem $(GO) test -race -short ./...

# Mirrors the `lint` job.  staticcheck and govulncheck are skipped when not
# installed so the target works offline; CI always runs them.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it; go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped (CI runs it; go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Mirrors the fuzz smoke of the `test` job: every codec fuzzer (fixed and
# varint record codecs, the varint garbage-decode robustness fuzzer), every
# frame/footer parser fuzzer and FuzzEngine (one whole engine run on a small
# random graph at a random algorithm, codec, storage backend, shard count
# and node budget, against Tarjan's partition) runs for FUZZTIME.
# `go test -fuzz` takes one target at a time, hence the loop.
fuzz:
	@set -e; for pkg in . ./internal/record ./internal/blockio; do \
		for f in $$($(GO) test $$pkg -list 'Fuzz.*' | grep '^Fuzz'); do \
			echo "fuzzing $$pkg $$f for $(FUZZTIME)"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME); \
		done; \
	done

# Mirrors the `bench` job: quick fig7 over the 12-point grid {os, mem} x
# {fixed, varint} x {1, 2, 4} compute shards, in one invocation.  Across
# storage every point keeps its SCC partition, iteration count and every
# I/O and byte count; across codecs its partition and iteration count, with
# varint writing >= 30% fewer bytes and charging fewer block I/Os; across
# shard counts the partition of every completed run.  The grid's (os,
# fixed|varint, 1) points are also gated against the committed baseline.
# Every CSV row carries the per-phase *_ms columns.
bench:
	$(GO) run ./cmd/sccbench -experiment fig7 -quick -storage os,mem \
		-codec fixed,varint -shards 1,2,4 \
		-json BENCH_quick.json -csv BENCH_quick.csv -baseline bench/baseline.json

# Steady-state microbenchmarks, with -benchmem: the per-frame varint
# encode/decode hot path must report 0 allocs/op, since it appends into
# reused caller buffers (TestFrameRoundTripAllocs enforces it in `make test`
# too), as must the varint encode-only and decode-only legs on
# contract-web's two hot frames at B = 64 KiB (web-Edge: 6,551 edges by
# source; web-EdgeAug: 3,275 augmented edges by target); the in-place radix
# sort of run formation reports its ns/op and 0 allocs/op on contract-web's
# run shapes at M = 4 MiB (M/2 over each record's size: 262,144 edges,
# 131,072 augmented edges, 174,762 SCC-annotated edges); an LRU miss of the
# serving path — a 2-id Result.LookupLabels batch over serve-large's
# ~100k-label varint labelling — reports its ns/op, B/op and allocs/op; and the semi-external base case
# on serve-large's graph (B = 64 KiB, M = 4 MiB) reports its ns/op, edge
# scans and I/Os per solve.
microbench:
	$(GO) test ./internal/record -run '^$$' -bench BenchmarkFrameRoundTrip -benchmem -benchtime 200x
	$(GO) test ./internal/extsort -run '^$$' -bench BenchmarkSortSlice -benchmem -benchtime 10x
	$(GO) test . -run '^$$' -bench BenchmarkLookupLabels -benchmem -benchtime 2000x
	$(GO) test ./internal/semiscc -run '^$$' -bench BenchmarkSemiExternal -benchmem -benchtime 10x

# Refresh the committed baseline after an intentional I/O-count change;
# commit the resulting bench/baseline.json.  It holds both codec families'
# sweeps on the os backend, unsharded: the grid points `make bench` gates.
bench-baseline:
	$(GO) run ./cmd/sccbench -experiment fig7 -quick -codec fixed,varint \
		-json bench/baseline.json

# Mirrors the `serve-smoke` job: build sccserve, boot it on the generated
# quick-fig7 web graph under both storage backends, assert scripted HTTP
# queries against an in-process oracle (plus hand-computed answers on a path
# graph), and verify /healthz, SIGTERM-clean shutdown, and zero leftover
# temp files.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Mirrors the `faultsweep` job: the systematic fault-injection sweep (every
# storage backend x both codecs, sampled fault positions), its WithShards(2)
# leg over the condense and compose steps, its leg over serve.New's DAG and
# index build, the read-fault sweep over DFS-SCC's label files, the
# corruption smoke (every flipped
# payload byte of a v2 frame must surface as ErrCorrupt), and end-to-end
# CLI runs under an EXTSCC_FAULT plan — a torn write plus a transient read
# must be absorbed by -retry on both backends (the torn flavor on the os leg
# pins the truncate-and-rewrite recovery against real seek-offset
# semantics), and a corrupting plan must fail the run with a typed
# corruption message, never a wrong answer.  The retry legs run at node
# budget 15,000, where the 20,000-node graph contracts three times, and both
# faults land inside the first contraction step's cover scan while E_d's
# sort stream is open: the torn write is the 54th write under the run
# directory, the fourth block of ein-trim (after staging, eout, vout, vd and
# E_d's runs), and the transient read the 52nd read, a block of one of E_d's
# runs as the streamed merge feeds the scan, right after the torn write.
# Each retry leg fails unless sccrun reports both faults recovered.
faultsweep:
	$(GO) test . ./internal/storage ./internal/recio ./internal/blockio ./internal/serve ./internal/contraction ./internal/baseline \
		-run 'Fault|Corrupt|Retry|Torn|WriteAppends' -count=1
	$(GO) run ./cmd/sccgen -kind web -nodes 20000 -out FAULT_graph.edges
	EXTSCC_FAULT='op=write,n=54,mode=torn,path=extscc-engine-;op=read,n=52,mode=transient,path=extscc-engine-' \
		EXTSCC_STORAGE=os $(GO) run ./cmd/sccrun -in FAULT_graph.edges -node-budget 15000 -retry 3 | tee FAULT_os.log
	grep -q '^retries: 2 ' FAULT_os.log || { echo "os leg: the torn write and the transient read were not both recovered"; exit 1; }
	EXTSCC_FAULT='op=write,n=54,mode=torn,path=extscc-engine-;op=read,n=52,mode=transient,path=extscc-engine-' \
		EXTSCC_STORAGE=mem $(GO) run ./cmd/sccrun -in FAULT_graph.edges -node-budget 15000 -retry 3 -codec varint | tee FAULT_mem.log
	grep -q '^retries: 2 ' FAULT_mem.log || { echo "mem leg: the torn write and the transient read were not both recovered"; exit 1; }
	@echo "expecting the corrupting run below to fail with a corruption error:"
	! EXTSCC_FAULT='op=read,n=1,count=0,mode=corrupt,path=extscc-engine-' \
		EXTSCC_STORAGE=os $(GO) run ./cmd/sccrun -in FAULT_graph.edges -retry 3 -codec varint
	rm -f FAULT_graph.edges FAULT_os.log FAULT_mem.log
