GO ?= go

.PHONY: test race bench bench-smoke benchdiff benchcheck crashtest chaos cluster cover oracle apicheck lint fmt vet

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark snapshot: runs the core performance probes and writes
# BENCH_PR10.json (see cmd/polyfit-bench). Pass BASELINE=path to embed a
# previous snapshot for a before/after pair.
BENCH_OUT ?= BENCH_PR10.json
BASELINE ?=
bench:
	$(GO) run ./cmd/polyfit-bench -out $(BENCH_OUT) $(if $(BASELINE),-baseline $(BASELINE))

# One-iteration pass over every testing.B benchmark (what CI runs).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Quick before/after: re-run the probes (-quick datasets) and diff against
# the committed baseline snapshot with the in-repo comparator (see
# cmd/benchdiff — offline-friendly stand-in for benchstat, same delta
# table). Report-only: quick runs are too noisy to gate on.
BENCH_BASE ?= BENCH_PR10.json
benchdiff:
	$(GO) run ./cmd/polyfit-bench -quick -out /tmp/bench-head.json
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASE) -new /tmp/bench-head.json

# Vet and test the benchmark program (perfbench/, see BENCHMARK.json). It is
# a module of its own, so the root ./... commands never build it; this
# catches a server change that breaks the benchmark's build.
benchcheck:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# End-to-end crash-recovery check: build polyfit-serve, run it with a
# -data-dir, acknowledge inserts, SIGKILL it mid-workload, restart, and
# assert every acknowledged insert is still answered.
crashtest:
	$(GO) run ./cmd/polyfit-crashtest

# Chaos matrix: the crash-recovery check repeated under seeded faultfs
# schedules (failed writes, short writes, failed fsyncs, failed renames)
# injected into the server's data dir. Deterministic — each schedule has a
# fixed seed. Asserts the server keeps answering 200 under injection,
# degradation is reported in /v1/stats, and zero durable-acknowledged
# inserts are lost across SIGKILL + recovery.
chaos:
	$(GO) run ./cmd/polyfit-crashtest -chaos

# Replicated-tier scenario: durable leader + two -join followers + -route
# router as four separate processes. Streams single-writer inserts through
# the router, SIGKILLs a follower and then the leader, restarts each, and
# asserts continuous router availability (every read answers 200 with any
# single node down), zero durable-acknowledged-insert loss across the
# leader kill, mid-stream follower rejoin, and byte-identical follower
# answers at the acked watermark.
cluster:
	$(GO) run ./cmd/polyfit-crashtest -cluster

# Per-package coverage floor for the accuracy-critical packages
# (internal/core, internal/segment, internal/server fail under 75%).
cover:
	./scripts/check-coverage.sh

# Differential oracle harness: once with the fixed seed, once with a fresh
# random seed (logged on failure so it can be replayed via ORACLE_SEED=<n>).
oracle:
	$(GO) test ./internal/oracle/ -count=1
	ORACLE_SEED=random $(GO) test -v -run TestDifferential ./internal/oracle/ -count=1

# Public-API guard: every example must build against the current API, and
# the golden-surface test pins every exported identifier of the root
# package (testdata/api.txt; regenerate deliberately with
# `go test -run TestAPISurface . -update`).
apicheck:
	$(GO) build ./examples/...
	$(GO) test -run TestAPISurface . -count=1

# Project-specific static analysis (cmd/polyfit-lint): atomic/plain access
# mixing, "guarded by" mutex annotations, Result.Bound certification,
# sentinel error wrapping, //polyfit:nofloat purity, and Sync/Close
# durability hygiene. Blocking — exits non-zero on any finding.
lint:
	$(GO) run ./cmd/polyfit-lint .

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
