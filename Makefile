# Development gates. `make check` runs the same checks as CI's test and
# nvmcheck jobs, so a clean local run means a clean PR.

GO ?= go

.PHONY: check fmt vet nvmcheck nvmcheck-stats analyzer-mutants crosscheck test race benchmark-module fuzz-smoke fuzz-check crashmatrix chaos benchscan benchserve benchkernel-smoke

check: fmt vet nvmcheck race benchmark-module

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (see internal/analysis): runs its
# unit tests first (under -race — the driver runs analyzers on packages
# concurrently) so a broken analyzer cannot vacuously pass the repo,
# then the full suite — six per-package analyzers plus the two
# whole-program ones (protocheck, recoverycheck) over the module-wide
# callgraph — diffed against the committed findings baseline (the
# baseline is empty — the module is clean — so any finding is a new
# finding), then the suppression self-check that rejects reasonless
# //nvmcheck:ignore comments anywhere, fixtures included, and fails on
# a points-to resolution-rate regression.
nvmcheck:
	$(GO) test -race ./internal/analysis/...
	$(GO) run ./cmd/nvmcheck -wholeprogram -baseline nvmcheck_baseline.json ./...
	$(GO) run ./cmd/nvmcheck -selfcheck ./...

# Per-analyzer finding/suppression/wall-clock counts plus points-to
# resolution metrics, to keep waiver debt, analysis blind spots and the
# analysis-time budget visible.
nvmcheck-stats:
	$(GO) run ./cmd/nvmcheck -wholeprogram -stats ./...

# Does each analyzer earn its keep? In a temporary copy of the tree,
# blanks one standalone persist barrier of the engine at a time (pstruct,
# storage, txn, index, shard), runs the suite over each mutant and diffs
# which analyzers notice against internal/analysis/mutants.expected;
# fails when an analyzer stops catching a site it caught there, or when a
# barrier site appears that the file does not list. DESIGN.md row 18
# records the table. CI runs it in the nvmcheck job; it takes a few
# minutes, so it is not part of `make check`.
analyzer-mutants:
	sh internal/analysis/mutants.sh

# Cross-validation: static and dynamic analysis must agree on the same
# injected bug. Five seeded protocol bugs, each gated behind a build tag
# that swaps one file of the engine for a broken variant, each proven
# twice per tag by TestCrashMatrixSeeded: the analyzers the tag's
# internal/crashtest/seeded_*.go names must flag the seeded package, and
# the shadow crash sweep at the shard count it names must corrupt a real
# database:
#
#   - two single-heap persist-protocol bugs, swept in a fleet of one and
#     flagged by publishcheck — the stage half of Vector.Append never
#     flushes its element (pstruct/vector_stage_seeded.go), and
#     Table.AppendRow publishes a row before its stage fence
#     (storage/table_append_seeded.go);
#   - three 2PC protocol bugs (internal/shard/*_seeded.go), swept in a
#     fleet of two and flagged by the whole-program analyzers.
#
# A sixth bug is an isolation bug, caught only dynamically: the horizon
# reorder (crosscheck_horizon, internal/shard/tx_2pc_horizon_seeded.go)
# retires a cross-shard commit's CID before its parts are stamped. No
# barrier moves, so neither a crash sweep nor an analyzer can see it; the
# sharded bank invariant must fail on a reader that sums half a transfer.
crosscheck:
	@status=0; \
	for tag in crosscheck_noelemflush crosscheck_earlypublish crosscheck_nodecidepersist crosscheck_swap crosscheck_deadfield; do \
		echo "crosscheck: seeding $$tag"; \
		if out="$$($(GO) test -tags $$tag ./internal/crashtest -run 'TestCrashMatrixSeeded' -count=1 -v 2>&1)"; then \
			echo "$$out" | grep -E 'static:|dynamic:'; \
		else \
			echo "$$out" >&2; \
			echo "crosscheck: $$tag NOT caught both statically and dynamically" >&2; status=1; \
		fi; \
	done; \
	echo "crosscheck: seeding crosscheck_horizon"; \
	out="$$($(GO) test -tags crosscheck_horizon ./internal/shard -run 'TestBankTransferInvariantSharded' -count=1 2>&1)"; \
	if echo "$$out" | grep -E 'snapshots summed to other than'; then :; else \
		echo "$$out" >&2; \
		echo "crosscheck: crosscheck_horizon NOT caught dynamically" >&2; status=1; \
	fi; \
	exit $$status

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The repo benchmark is a nested module (benchmark/go.mod) that imports
# internal packages and the DB.Engine / Table.Internal hatches, but
# `./...` from the root never compiles it — so an internal deletion can
# break it unnoticed unless it is vetted and tested on its own.
benchmark-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Crash-point enumeration (see internal/crashtest). Pass 1 cuts power at
# every persist barrier of every heap: the standard workload and eight
# seeded generative workloads (random inserts, updates, deletes, aborts,
# group commits, merges and scavenges against an in-memory
# model) in a fleet of one, and the cross-shard workload in a fleet of
# two (both shard heaps and the coordinator's), under four crash
# behaviors (pure loss + three tear seeds), fscking and verifying each
# recovered database in-process. Pass 2 keeps the bounded standard and
# 2-shard sweeps' directories on disk and re-checks every surviving
# database with the external `hyrise-nv fsck`.
CRASHMATRIX_DIR ?= $(CURDIR)/.crashmatrix
crashmatrix:
	CRASHMATRIX_FULL=1 $(GO) test ./internal/crashtest -run 'TestCrashMatrix(Generative|2PC)?$$' -v -timeout 30m
	rm -rf $(CRASHMATRIX_DIR)
	CRASHMATRIX_KEEP=$(CRASHMATRIX_DIR) $(GO) test ./internal/crashtest -run 'TestCrashMatrix(2PC)?$$' -v
	$(GO) build -o bin/hyrise-nv ./cmd/hyrise-nv
	@fails=0; \
	for d in $(CRASHMATRIX_DIR)/*/*_b*; do \
		bin/hyrise-nv fsck "$$d" >/dev/null || { echo "external fsck failed: $$d" >&2; fails=1; }; \
	done; \
	[ "$$fails" -eq 0 ] && echo "crashmatrix: every surviving database passes hyrise-nv fsck"

# Acked-durability chaos run (internal/chaos): 10 SIGKILL/restart
# cycles of a real hyrise-nvd under mixed pipelined load with the fault
# plane armed on both ends of the wire — allocation faults, latency
# spikes, drain stalls, resets, partial frames — an offline fsck after
# every crash, and verification that every client-acked commit survived
# exactly once. Fails on any violation. CI runs the 3-cycle smoke via
# `CHAOS_CYCLES=3 go test ./internal/chaos`.
chaos:
	$(GO) build -o bin/hyrise-nvd ./cmd/hyrise-nvd
	$(GO) build -o bin/hyrise-nv ./cmd/hyrise-nv
	bin/hyrise-nv connect chaos -daemon bin/hyrise-nvd -cycles 10

# Morsel-parallel scan benchmarks (internal/exec) at Parallelism
# 1/2/4/8 over the 1M-row table, plus the sharded scan sweep
# (internal/shard) at shard counts 1/2/4/8 over fixed total rows, all
# recorded to BENCH_scan.json for the perf trajectory. The rows/s
# metric is in each benchmark's Extra map.
benchscan:
	$(GO) test ./internal/exec -run '^$$' -bench 'ScanPredicate|ScanSelect|GroupByParallel' \
		-benchtime 3x -timeout 30m | tee BENCH_scan.txt
	$(GO) test ./internal/shard -run '^$$' -bench 'ScanSharded' \
		-benchtime 3x -timeout 30m | tee -a BENCH_scan.txt
	$(GO) run ./cmd/benchjson -in BENCH_scan.txt -out BENCH_scan.json
	rm -f BENCH_scan.txt

# Serving benchmarks: 1024-connection write workload under
# persist-group commit (the ServeWrite pattern also matches the
# per-shard-count sweep at Shards=1/4), plus the 2x-saturation overload
# run with admission control. Fixed op counts keep the runs comparable
# across machines; the op budget is the bench's b.N.
benchserve:
	$(GO) test ./internal/load -run '^$$' -bench 'ServeWrite' \
		-benchtime 2000x -timeout 30m | tee BENCH_serve.txt
	$(GO) test ./internal/load -run '^$$' -bench 'ServeOverload' \
		-benchtime 20000x -timeout 30m | tee -a BENCH_serve.txt
	$(GO) run ./cmd/benchjson -in BENCH_serve.txt -out BENCH_serve.json
	rm -f BENCH_serve.txt

# The scan kernel's benchmarks — the plane walk of the packed words, the
# block decode, the visibility bitmap, the delta's interval test and the
# morsel-parallel predicate count — the main and delta dictionaries'
# lookups and the main group-key lookup, compiled and run for one op
# each, as CI does: they are the instruments behind the kernel figures in
# EXPERIMENTS.md E9, the dictionary figures in E16 and E17 and the
# group-key figure in E18, and a benchmark that no longer builds or runs
# measures nothing.
benchkernel-smoke:
	$(GO) test ./internal/pstruct ./internal/mvcc ./internal/exec ./internal/storage ./internal/index -run '^$$' \
		-bench 'FilterBits|UnpackBits|VisibleBits|DeltaFilter|ScanPredicate|MainDict|DeltaDictSearch|GroupKeyRows' -benchtime 1x

# The smoke CI runs (its fuzz-smoke job is `make fuzz-smoke`): 30s per
# fuzzer — the wire codecs, the server's one transaction body under
# random batches (an input takes milliseconds there, so minimizing a new
# one is capped by count rather than left its default minute), the bit
# unpacker GROUP BY and the join decode main-partition blocks through,
# the packed-word predicate every main-partition scan filters through,
# the value-ID and key-word predicate every delta scan filters through,
# the append arena under random sizes and reopen points, the delta
# dictionary under random inserts, gets and reopens (an input takes
# milliseconds, so its minimizing is capped by count too), the merge's
# dictionary translation against its map-based oracle, the main
# dictionary's block under fuzzed bytes (attach, lookups and Check answer
# or report, never panic), and the analyzers' control-flow graph
# builder. fuzz-check runs first.
fuzz-smoke: fuzz-check
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzDecodeFrame' -fuzztime 30s
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzReadFrame' -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzServeBatch' -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/pstruct -run '^$$' -fuzz 'FuzzUnpackBits' -fuzztime 30s
	$(GO) test ./internal/pstruct -run '^$$' -fuzz 'FuzzFilterBits' -fuzztime 30s
	$(GO) test ./internal/exec -run '^$$' -fuzz 'FuzzDeltaFilter' -fuzztime 30s
	$(GO) test ./internal/pstruct -run '^$$' -fuzz 'FuzzArena' -fuzztime 30s
	$(GO) test ./internal/pstruct -run '^$$' -fuzz 'FuzzDeltaDict' -fuzztime 30s -fuzzminimizetime 100x
	$(GO) test ./internal/storage -run '^$$' -fuzz 'FuzzMergeDict' -fuzztime 30s
	$(GO) test ./internal/storage -run '^$$' -fuzz 'FuzzMainDict' -fuzztime 30s
	$(GO) test ./internal/analysis/cfg -run '^$$' -fuzz 'FuzzCFG' -fuzztime 30s

# Fails when a fuzzer of the module is missing from fuzz-smoke: every
# `func Fuzz*` in a test file needs a line above that fuzzes it in its
# own package, so a new fuzzer cannot be left out of the smoke.
fuzz-check:
	@status=0; \
	for f in $$(grep -rlE --include='*_test.go' --exclude-dir=testdata --exclude-dir=benchmark '^func Fuzz' .); do \
		pkg=$$(dirname $$f); \
		for fn in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' $$f); do \
			grep -F "test $$pkg -run " Makefile | grep -qF -e "-fuzz '$$fn' " || \
				{ echo "fuzz-check: $$fn in $$pkg is not in fuzz-smoke" >&2; status=1; }; \
		done; \
	done; \
	exit $$status
