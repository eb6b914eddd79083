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

# Mirrors the `race` job: the WithWorkers pools, the in-memory storage
# backend, and the sharded multi-volume backend under the race detector,
# once per storage spec, plus a leg with the compress codec as the process
# default (EXTSCC_CODEC) so the LZ encode/decode paths run under the
# detector too.
race:
	EXTSCC_STORAGE=os $(GO) test -race -short ./...
	EXTSCC_STORAGE=mem $(GO) test -race -short ./...
	EXTSCC_STORAGE=shard=mem,mem $(GO) test -race -short ./...
	EXTSCC_STORAGE=mem EXTSCC_CODEC=compress $(GO) test -race -short ./...

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

# Mirrors the fuzz smoke of the `test` job: every codec fuzzer (fixed,
# varint and compress record codecs, the raw LZ round trip, the
# garbage-decode robustness fuzzers) and every frame/footer parser fuzzer
# runs for FUZZTIME.  `go test -fuzz` takes one target at a time, hence the
# loop.
fuzz:
	@set -e; for pkg in ./internal/record ./internal/blockio; do \
		for f in $$($(GO) test $$pkg -list 'Fuzz.*' | grep '^Fuzz'); do \
			echo "fuzzing $$pkg $$f for $(FUZZTIME)"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME); \
		done; \
	done

# Mirrors the `bench` job: quick fig7, workers=1 vs workers=NumCPU with
# identical SCCs and I/O counts enforced; the shard gate (1 vs 2 vs 4
# compute shards on per-shard in-memory volumes, identical SCC counts, the
# per-shard-count rows and speedup recorded in BENCH_quick.{json,csv}); the
# storage-equivalence gate (mem ≡ os); then the codec gate (all three
# families — fixed, varint, compress — must agree on SCC results; varint
# must cut pipeline bytes by >= 30% and lower block I/Os; on the shuffled
# codecw workload, where varint stays under 10%, compress must cut bytes by
# >= 20%), with the three-codec sweep also gated against the committed
# baseline.  Every CSV row carries the per-phase *_ms columns.
bench:
	$(GO) run ./cmd/sccbench -experiment fig7 -quick -compare-workers -workers 0 \
		-json BENCH_workers.json -csv BENCH_workers.csv
	$(GO) run ./cmd/sccbench -experiment fig7 -quick -compare-shards -workers 1 \
		-json BENCH_quick.json -csv BENCH_quick.csv
	$(GO) run ./cmd/sccbench -experiment fig7 -quick -compare-storage -workers 1
	$(GO) run ./cmd/sccbench -experiment fig7 -quick -compare-codec -workers 1 \
		-json BENCH_codec.json -csv BENCH_codec.csv \
		-baseline bench/baseline.json -tolerance 0.25

# Steady-state microbenchmarks, with -benchmem: the per-frame encode/decode
# hot path of every codec family must report 0 allocs/op
# (TestFrameRoundTripAllocs enforces it in `make test` too), as must the
# varint encode-only and decode-only legs on contract-web's two hot frames
# at B = 64 KiB (web-Edge: 6,551 edges by source; web-EdgeAug: 1,310
# augmented edges by target); the in-place radix sort of run formation
# reports its ns/op and 0 allocs/op on contract-web's run shapes at M = 4 MiB;
# and an LRU miss of the serving path — a 2-id Result.LookupLabels batch over
# serve-large's ~100k-label varint labelling — reports its ns/op, B/op and
# allocs/op.
microbench:
	$(GO) test ./internal/record -run '^$$' -bench BenchmarkFrameRoundTrip -benchmem -benchtime 200x
	$(GO) test ./internal/extsort -run '^$$' -bench BenchmarkSortSlice -benchmem -benchtime 10x
	$(GO) test . -run '^$$' -bench BenchmarkLookupLabels -benchmem -benchtime 2000x

# Refresh the committed baseline after an intentional I/O-count change;
# commit the resulting bench/baseline.json.  The baseline is recorded under
# -compare-codec so it holds all three codec families' sweeps plus the
# codecw workload rows — the same shape the gating run produces.
bench-baseline:
	$(GO) run ./cmd/sccbench -experiment fig7 -quick -compare-codec -workers 1 \
		-json bench/baseline.json

# Mirrors the `serve-smoke` job: build sccserve, boot it on the generated
# quick-fig7 web graph under both storage backends, assert scripted HTTP
# queries against an in-process oracle (plus hand-computed answers on a path
# graph), and verify /healthz, SIGTERM-clean shutdown, and zero leftover
# temp files.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Mirrors the `faultsweep` job: the systematic fault-injection sweep (both
# storage backends x all three codecs, sampled fault positions), the
# corruption smoke (every flipped payload byte of a v2 frame must surface as
# ErrCorrupt), and end-to-end CLI runs under an EXTSCC_FAULT plan — a torn
# write plus a transient read must be absorbed by -retry on both backends
# and under both framed codecs (the torn flavor on the os leg pins the
# truncate-and-rewrite recovery against real seek-offset semantics), and a
# corrupting plan must fail the run with a typed corruption message, never a
# wrong answer.
faultsweep:
	$(GO) test . ./internal/storage ./internal/recio ./internal/blockio \
		-run 'Fault|Corrupt|Retry|Torn|WriteAppends' -count=1
	$(GO) run ./cmd/sccgen -kind web -nodes 20000 -out FAULT_graph.edges
	EXTSCC_FAULT='op=write,n=5,mode=torn,path=extscc-engine-;op=read,n=40,mode=transient,path=extscc-engine-' \
		EXTSCC_STORAGE=os $(GO) run ./cmd/sccrun -in FAULT_graph.edges -retry 3
	EXTSCC_FAULT='op=write,n=5,mode=torn,path=extscc-engine-;op=read,n=40,mode=transient,path=extscc-engine-' \
		EXTSCC_STORAGE=mem $(GO) run ./cmd/sccrun -in FAULT_graph.edges -retry 3 -codec varint
	EXTSCC_FAULT='op=write,n=5,mode=torn,path=extscc-engine-;op=read,n=40,mode=transient,path=extscc-engine-' \
		EXTSCC_STORAGE=os $(GO) run ./cmd/sccrun -in FAULT_graph.edges -retry 3 -codec compress
	@echo "expecting the corrupting run below to fail with a corruption error:"
	! EXTSCC_FAULT='op=read,n=1,count=0,mode=corrupt,path=extscc-engine-' \
		EXTSCC_STORAGE=os $(GO) run ./cmd/sccrun -in FAULT_graph.edges -retry 3 -codec varint
	@echo "expecting the corrupting run below to fail with a corruption error:"
	! EXTSCC_FAULT='op=read,n=1,count=0,mode=corrupt,path=extscc-engine-' \
		EXTSCC_STORAGE=os $(GO) run ./cmd/sccrun -in FAULT_graph.edges -retry 3 -codec compress
	rm -f FAULT_graph.edges
