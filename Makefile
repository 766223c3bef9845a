# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test golden race fuzz-smoke loc loc-check bench-suite-test bench-allocs bench-pairs bench-profile soak experiments tables cover clean ci docs-check smoke-report

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Regenerate cmd/adcpsim/testdata, the committed bytes of `adcpsim -exp all`
# that TestExpAllGolden compares exactly (stdout, the exp.* rows, and the
# sha256 of the metrics document and trace exports). Run it only when a
# change is meant to move those bytes, and say which rows moved and why.
golden:
	go test ./cmd/adcpsim -run '^TestExpAllGolden$$' -update

# Full suite under the race detector, the two crash gates included. CI runs
# this as its own blocking job; the replication/failover plane in particular
# crosses goroutines in the experiment watchdog, so keep this green before
# merging.
race:
	go test -race ./...

# Every native fuzzer in the tree (found by name, so a new one is picked
# up without editing this file), FUZZTIME each; `go test -fuzz` takes one
# package and one target per invocation. Blocking in CI. The minimizer is
# capped because its default budget is a minute per new input, which on
# the file-backed FuzzReplayFrames would eat the whole smoke window.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for f in $$(grep -r --include='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
			-o '^func Fuzz[A-Za-z0-9_]*' . | sed 's|/[^/]*:func |:|'); do \
		echo "== $$f"; \
		go test "$${f%%:*}" -run '^$$' -fuzz "^$${f##*:}\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s; \
	done

# Line counts by the ROADMAP's rule: every *.go outside bench/ (the
# benchmark is its own module), _test.go files counted apart.
loc:
	@count() { find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' "$$@" -print0 | xargs -0 cat | wc -l; }; \
	echo "source $$(count -not -name '*_test.go')"; \
	echo "test   $$(count -name '*_test.go')"

# The ROADMAP's size target as a gate (blocking in CI): the source count
# above must not exceed the ceiling. A PR that shrinks the tree lowers the
# ceiling to its own result; one that has to raise it says why in
# CHANGES.md.
LOC_CEILING := 23703
loc-check:
	@src=$$($(MAKE) -s loc | awk '$$1 == "source" { print $$2 }'); \
	if [ "$$src" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$src source lines, over the ceiling of $(LOC_CEILING)" >&2; exit 1; fi; \
	echo "loc-check: $$src source lines (ceiling $(LOC_CEILING))"

# The repository benchmark under bench/ is its own module (repro/bench), so
# the root `go vet ./...` and `go test ./...` never see it; this runs its
# vet and tests (every workload at -quick size, ~10 s). Blocking in CI.
bench-suite-test:
	cd bench && go vet ./... && go test ./...

# The repository benchmark's allocation numbers on one screen: the six
# gated workloads at two seconds each, untraced, one row per workload with
# the first 16 hex digits of its digest (scripts/bench_allocs.py). The two
# counts repeat exactly from run to run (they are counts) and peak_rss_mb to
# within a MiB, so two seconds is enough; setup_s is there because work
# moved out of the per-packet path must not reappear in construction. A
# workload that fails verification is marked FAILED and makes the target
# fail once every row is printed. Builds via bench/run.sh like every other
# benchmark run. See "A packet's allocation ledger" and "What a round holds
# before it runs" in docs/PERFORMANCE.md.
BENCH_WORKLOADS := agg-line agg-saturated kv-get kv-mixed lossy-failover sweep-build
bench-allocs:
	@python3 scripts/bench_allocs.py $(BENCH_WORKLOADS)

# Alternating parent/change pairs of one benchmark workload, the procedure
# every performance claim rests on: BASE is exported (git archive) into
# PAIRS_DIR, then N pairs run, one side in the export and one in this
# checkout, swapping which goes first; each side builds and runs its own
# unmodified bench/run.sh at --seconds 10 --trace 0. Prints, per end-to-end
# metric, both medians and quartiles, the pairs each side won and every
# digest seen (scripts/bench_pairs.py). About a minute per pair.
N ?= 10
SEED ?= 1
BASE ?= HEAD~1
PAIRS_DIR ?= /tmp/bench-pairs
bench-pairs:
	@test -n "$(W)" || { echo "usage: make bench-pairs W=<workload> [N=10] [SEED=1] [BASE=HEAD~1]" >&2; exit 2; }
	@python3 scripts/bench_pairs.py $(W) $(N) $(SEED) $(BASE) $(PAIRS_DIR)

# One package benchmark under the CPU profiler, printed as the cumulative
# top of the profile: the per-site numbers behind the ledgers of
# docs/PERFORMANCE.md, from a committed benchmark instead of a patched
# harness. The benchmark's own line (ns/op, ns/pkt where it reports one)
# comes first; divide a site's cumulative time by the packets the run
# delivered for "ns per delivered packet". A second run of the same
# benchmark records every allocation (-memprofilerate 1) and prints the
# allocated-objects top, then the allocated-bytes top; divide a site's
# count or bytes by the run's ops (its benchmark line) for a per-op
# figure. The test binary and both profiles
# stay in PROFILE_DIR for `go tool pprof -list`.
BENCHTIME ?= 5s
PROFILE_DIR ?= /tmp/bench-profile
bench-profile:
	@test -n "$(PKG)" -a -n "$(B)" || { echo "usage: make bench-profile PKG=./internal/netsim B=RecoveryRound [BENCHTIME=5s]" >&2; exit 2; }
	@mkdir -p $(PROFILE_DIR)
	go test $(PKG) -run '^$$' -bench '^Benchmark$(B)$$' -benchtime $(BENCHTIME) \
		-o $(PROFILE_DIR)/test.bin -cpuprofile $(PROFILE_DIR)/cpu.prof
	go tool pprof -top -cum $(PROFILE_DIR)/test.bin $(PROFILE_DIR)/cpu.prof | head -40
	go test $(PKG) -run '^$$' -bench '^Benchmark$(B)$$' -benchtime $(BENCHTIME) \
		-o $(PROFILE_DIR)/test.bin -memprofile $(PROFILE_DIR)/mem.prof -memprofilerate 1
	go tool pprof -sample_index=alloc_objects -top $(PROFILE_DIR)/test.bin $(PROFILE_DIR)/mem.prof | head -40
	go tool pprof -sample_index=alloc_space -top $(PROFILE_DIR)/test.bin $(PROFILE_DIR)/mem.prof | head -40

# Chaos soak: random fault plans (loss, corruption, link-down windows,
# host crashes, switch stalls) against the network with recovery enabled;
# asserts ledger conservation and coflow completion for every seed. Seeds
# fan out across the parallel worker pool. `go test ./...` runs 500 seeds;
# this target is the wider hunt. Override the sweep width with
# SOAK_SEEDS=<n> and the pool width with PARALLEL=<n> (default: NumCPU).
SOAK_SEEDS ?= 5000
PARALLEL ?=
soak:
	SOAK_SEEDS=$(SOAK_SEEDS) PARALLEL=$(PARALLEL) go test -run TestChaosSoak -v ./internal/netsim/

# Documentation lint: every internal package and command carries a godoc
# comment, every relative markdown link in README.md / docs/ resolves,
# and docs/METRICS.md matches a fresh `go run ./cmd/metricsdoc`.
docs-check:
	go run ./cmd/docscheck

# Every table and figure of the paper.
experiments:
	go run ./cmd/adcpsim -exp all

tables:
	go run ./cmd/adcpsim -exp table2,table3

# Smoke run of the observability artifacts over every experiment: the HTML
# report, the samples CSV and the causal-span trace (Perfetto-viewable) land
# in REPORT_DIR, which CI uploads. -spans implies tracing, so the run is
# sequential; the artifacts are byte-identical at any -parallel width anyway.
REPORT_DIR ?= /tmp/artifacts
smoke-report:
	mkdir -p $(REPORT_DIR)
	go run ./cmd/adcpsim -exp all -report $(REPORT_DIR)/run-report.html \
		-samples-csv $(REPORT_DIR)/samples.csv -spans $(REPORT_DIR)/spans.trace.json > /dev/null
	grep -q '<svg' $(REPORT_DIR)/run-report.html
	grep -q 'CCT attribution' $(REPORT_DIR)/run-report.html
	grep -q '"cat":"span"' $(REPORT_DIR)/spans.trace.json
	head -1 $(REPORT_DIR)/samples.csv | grep -qx 'name,labels,run,t_ps,value'

# The whole of .github/workflows/ci.yml's main job (it runs this target and
# uploads REPORT_DIR): formatting, vet, build, tests (TestExpAllGolden, the
# 500-seed soak and the two crash gates, TestKillResumeByteIdentity and
# TestDaemonKillRecoverByteIdentity, among them), the size gate, every
# fuzzer, the benchmark module's own vet and tests, the docs lint and the
# report smoke. The race detector is the other blocking job.
ci:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go build ./...
	go test ./...
	$(MAKE) loc-check
	$(MAKE) fuzz-smoke
	$(MAKE) bench-suite-test
	$(MAKE) docs-check
	$(MAKE) smoke-report

cover:
	go test -cover ./...

clean:
	go clean ./...
