# Developer entry points. Everything is stdlib Go; no external deps.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-smoke bench-check fuzz golden experiments examples serve-smoke cluster-smoke stream-smoke chaos fmt fmt-check vet lint lint-fix-check loc ci clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable engine benchmark cells (scheduler scaling + set-kernel +
# symmetry-breaking ablations) — tracked across PRs in BENCH_engine.json.
# Regenerate on purpose, not as a side effect: the cells are wall-clock.
bench-json:
	$(GO) run ./cmd/ohmbench -exp sched,kern,sym,stream -json BENCH_engine.json

# Fast correctness gate over the kernel and symmetry-breaking ablations:
# runs the reduced-size grids and fails on any count disagreement between
# the kernel families (internal/baseline), between them and the production
# engine, or between restricted and unrestricted plans.
bench-smoke:
	$(GO) run ./cmd/ohmbench -exp kern,sym -quick

# bench/ is a Go module of its own (BENCHMARK.json's harness), so ./... does
# not reach it: vet it and run its tests — every workload at -scale tiny with
# its correctness gates — so a change that breaks a workload's answers fails
# here, before the benchmark runs.
bench-check:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/hypergraph
	$(GO) test -fuzz FuzzBuild -fuzztime 30s ./internal/hypergraph
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/pattern
	$(GO) test -fuzz FuzzCanonicalKey -fuzztime 30s ./internal/pattern
	$(GO) test -fuzz FuzzSymmetry -fuzztime 30s ./internal/pattern
	$(GO) test -fuzz FuzzChooseOrder -fuzztime 30s ./internal/oig
	$(GO) test -fuzz FuzzLoad -fuzztime 30s ./internal/dal
	$(GO) test -fuzz FuzzBuildDelta -fuzztime 30s ./internal/dal
	$(GO) test -fuzz FuzzIntersectKernels -fuzztime 30s ./internal/intset
	$(GO) test -fuzz FuzzKernelFamilies -fuzztime 30s ./internal/baseline
	$(GO) test -fuzz FuzzPlanVerify -fuzztime 30s ./internal/engine
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime 30s ./internal/stream
	$(GO) test -fuzz FuzzStreamLogReplay -fuzztime 30s -fuzzminimizetime 0 ./internal/stream
	$(GO) test -fuzz FuzzStreamDelta -fuzztime 30s ./internal/stream
	$(GO) test -fuzz FuzzCheckpointDecode -fuzztime 30s ./internal/checkpoint
	$(GO) test -fuzz FuzzLogScan -fuzztime 30s ./internal/durable

# Cross-version golden files, written by the encoders of a named revision:
#   make golden REV=<git rev> TAG=<name>
# exports REV into .golden_build/ (git archive: no worktree or branch is left
# behind), drops internal/tools/goldengen into the export, runs it there and
# writes internal/dal/testdata/parent_<TAG>.ohmd and
# internal/engine/testdata/parent_<TAG>.ohmc (the interrupted star run),
# parent_<TAG>_chain.ohmc (the interrupted chain run),
# parent_<TAG>_clique.ohmc (the interrupted 4-clique run) and
# internal/stream/testdata/parent_<TAG>.ohmt with, where REV keeps one, its
# .ohmt.log (a persisted stream, the log's last record torn). Without REV the
# files are cut by this tree's encoders. Commit only the file a test names.
golden:
	@test -n "$(TAG)" || { echo 'usage: make golden [REV=<git rev>] TAG=<name>'; exit 2; }
	mkdir -p internal/dal/testdata internal/engine/testdata internal/stream/testdata
	rm -rf .golden_build
ifneq ($(REV),)
	mkdir -p .golden_build/internal/tools/goldengen
	git archive $(REV) | tar -x -C .golden_build
	cp internal/tools/goldengen/main.go .golden_build/internal/tools/goldengen/
endif
	cd $(if $(REV),.golden_build,.) && $(GO) run ./internal/tools/goldengen \
		-ohmd $(CURDIR)/internal/dal/testdata/parent_$(TAG).ohmd -ohmc $(CURDIR)/internal/engine/testdata/parent_$(TAG).ohmc \
		-chain $(CURDIR)/internal/engine/testdata/parent_$(TAG)_chain.ohmc \
		-clique $(CURDIR)/internal/engine/testdata/parent_$(TAG)_clique.ohmc \
		-ohmt $(CURDIR)/internal/stream/testdata/parent_$(TAG).ohmt
	rm -rf .golden_build

# Regenerate the paper's tables and figures (minutes; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/ohmbench -exp all -budget 45s

experiments-quick:
	$(GO) run ./cmd/ohmbench -exp all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/proteincomplex
	$(GO) run ./examples/coauthorship
	$(GO) run ./examples/contagion
	$(GO) run ./examples/streaming

# End-to-end drill for the ohmserve query service: builds the binary,
# starts it on a generated hypergraph, answers a query over HTTP, then
# SIGTERMs it with a query in flight and asserts a clean drain. Runs
# race-instrumented.
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke ./cmd/ohmserve

# End-to-end drills for the distributed cluster: builds ohmserve and
# ohmworker, then (a) SIGKILLs a worker mid-run and (b) SIGKILLs a durable
# coordinator (-cluster-dir) mid-job and restarts it from its WAL on the
# same port; both drills assert final counts equal a single-node run (see
# docs/DISTRIBUTED.md). The -run prefix matches both TestClusterSmoke and
# TestClusterSmokeCoordinatorRestart.
cluster-smoke:
	$(GO) test -count=1 -run TestClusterSmoke ./cmd/ohmworker

# End-to-end drill for the streaming subsystem: builds ohmserve with
# -stream-dir, creates a stream and a standing query over HTTP, feeds
# sequenced batches while an SSE subscriber is attached, SIGKILLs the
# server mid-stream, restarts it on the same directory, replays the feed
# (idempotent acks), and asserts the pushed deltas and final totals equal
# a from-scratch mine (see docs/STREAMING.md). Runs race-instrumented.
stream-smoke:
	$(GO) test -race -count=1 -run TestStreamSmoke ./cmd/ohmserve

# Fault-injection chaos drill: kill-at-kth-checkpoint, torn writes, worker
# panics, full-disk runs, the cluster's kill/zombie scenarios, and the
# coordinator's own WAL crash/restart (kill-after-kth-record and torn
# append) must all recover (or refuse) with exact counts,
# race-instrumented (see docs/ROBUSTNESS.md and docs/DISTRIBUTED.md). The stream leg kills a persisting miner
# after each batch's log append and resumes it from its base snapshot plus the log's intact records; a resume
# with the sink (after a kill, a torn append or a clean restart) rewrites no base and appends to that log.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/engine ./internal/cluster ./internal/stream

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific static analysis (see docs/LINTING.md) over the module and
# over bench/, a module of its own that ./... does not reach; then the
# direct-import check: production packages and the service binaries must not
# name internal/baseline — the paper's comparison systems stay out of them —
# nor internal/faultinject, whose failures belong in tests, nor the counting
# oracles internal/bruteforce and internal/mbv. Last, one durable layer: no
# non-test file outside internal/durable (and bench/, a module of its own)
# makes a temp file, renames one, syncs one, truncates one or opens one for
# appending; atomic replace is durable.WriteFile and appends go through
# durable.Log.
PRODUCTION = ./internal/engine ./internal/oig ./internal/dal ./internal/intset ./internal/stream ./internal/cluster ./internal/serve ./internal/motif ./internal/checkpoint ./internal/durable ./internal/pattern ./internal/sig ./internal/hypergraph ./cmd/ohmserve ./cmd/ohmworker ./cmd/ohmplan ./cmd/ohmstat
lint:
	$(GO) run ./cmd/ohmlint ./...
	$(GO) -C bench run ohminer/cmd/ohmlint ./...
	@bad=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' $(PRODUCTION) | grep -E 'ohminer/internal/(baseline|faultinject|bruteforce|mbv)( |$$)' | cut -d' ' -f1); \
	if [ -n "$$bad" ]; then echo "production package imports internal/baseline, internal/faultinject, internal/bruteforce or internal/mbv:"; echo "$$bad"; exit 1; fi
	@bad=$$(grep -rln --include='*.go' --exclude='*_test.go' -e 'os\.CreateTemp' -e 'os\.Rename' -e '\.Sync()' -e '\.Truncate(' -e 'O_APPEND' . | grep -v -e '^\./internal/durable/' -e '^\./bench/'); \
	if [ -n "$$bad" ]; then echo "temp file, rename, sync, truncate or append outside internal/durable (use durable.WriteFile or durable.Log):"; echo "$$bad"; exit 1; fi

# Non-test Go lines per package (bench/ is a module of its own; testdata is
# analyzer input, not code).
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' -not -name '*_test.go' \
		| xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = substr($$2, 1, length($$2) - length(p[n]) - 1); s[d] += $$1; t += $$1 } END { for (d in s) printf "%6d %s\n", s[d], d; printf "%6d total\n", t }' | sort -k2

# Audit suppression directives: every //ohmlint:allow and //lint:ignore
# must carry a written reason, or the gate fails.
lint-fix-check:
	$(GO) run ./cmd/ohmlint -suppressions ./...

# The full local gate: formatting, vet, ohmlint + suppression audit, the
# race-enabled tests, the end-to-end smokes (query service + distributed
# cluster + streaming), the examples (the in-repo callers of the root API),
# the cross-kernel count agreement smoke, and the benchmark harness's own
# vet + tests.
ci: fmt-check vet lint lint-fix-check race serve-smoke cluster-smoke stream-smoke chaos examples bench-smoke bench-check

clean:
	$(GO) clean ./...
