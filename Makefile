GO ?= go

.PHONY: all build test test-race vet fmt lint bench-smoke bench-harness fuzz-smoke cover loc loc-gate mutate verify

all: build

build:
	$(GO) build ./...

# -shuffle=on randomises test execution order within each package, surfacing
# inter-test state leaks (shared caches, leaked globals) that a fixed order
# hides, and -count=2 runs every test a second time in the same process, so
# a test that only passes while a process-wide cache is cold fails here. The
# shuffle seed is printed on failure for reproduction.
test:
	$(GO) test -count=2 -shuffle=on ./...

# The TCP fabric's connection pool races are scheduling-dependent (who parks,
# who pops, who closes), so the transport package gets five more passes; so
# do the in-flight fetch table, the PFS read-bound law and the source law,
# whose regressions are a matter of which prefetcher leads an assigned
# sample's fetch (and whether a repeat comes before its first touch), and a
# class's chunks (its prefetchers and the staging threads carve from them at
# once, and only the newest carve can be retracted), and the
# simulator's tag-stream cache and kernel gate (who builds a placement's
# tags, and whether a late build is charged, is a race between cells, and
# one policy value serves every cell of its column), and the plan cache's
# singleflight builds (sixteen requesters race one ranking and one tag
# stream, each built and counted once), and
# the fetch path's two decorators (who observes a breaker transition first
# is scheduling-dependent, and each peer's deadline window is shared by the
# rank's staging threads and class prefetchers), and the placement's two
# word widths with the tag and first-touch builders over them (shared, read
# concurrently by cells),
# and the sweep engine's dispatcher (which worker takes which admitted cell,
# and when delivery admits the next, is scheduling-dependent shared state),
# and the delivery contract (the staging free list is shared by the consumer
# and the staging threads, so a consumer that reads a released buffer races
# the thread refilling it; the TCP fabric reads staged remote payloads into
# the same free list's buffers, and the ownership test pins that the chan
# fabric's shared payloads never enter it), and job teardown (whether a returned cluster's
# jobs are garbage at the next GC depends on which goroutines have run), and
# the rank's record (every prefetcher writes it, and the consumer and Close
# fold it into the metric series), and the clock and the limiter and breaker
# tests that run on a manual clock (an advance races the waiter it wakes), and
# the staging ring (which out-of-order push lands in a ring slot, and when the
# ring grows, depends on scheduling), and cancellation (j.ctx is the job's one
# lifetime signal, and whether a prefetcher sees it before or after its fetch
# depends on scheduling), and the plan builder and its rebuild:
# epochs scatter concurrently into disjoint segments from pooled scratch.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 ./internal/transport/
	$(GO) test -race -count=5 -run 'Coalesc|PFSReadBound|SourceAgreement|Chunk|Resilient|Deadline|Caller|ThrottledBackend|AbortedProbe' ./nopfs/ ./internal/invariant/ ./internal/resilience/
	$(GO) test -race -count=5 -run 'Tag|Kernel|Subnormal|ThreadPool|SharedPolicy|Singleflight|CacheRace|Rank|BuildStreams|OrderFromStreams|ArtifactsMatch' ./internal/sim/ ./internal/plancache/ ./internal/access/
	$(GO) test -race -count=5 -run 'Width|Tags|FirstTouch' ./internal/cachepolicy/
	$(GO) test -race -count=5 -run 'RunStream|Dispatch|Determinism' ./internal/sweep/
	$(GO) test -race -count=5 -run 'Release|Recycle|Batch|Delivery|Ownership|Collectable|Metrics|Stats|Cancel' ./nopfs/
	$(GO) test -race -count=5 ./internal/clock/
	$(GO) test -race -count=5 -run 'Limiter|Breaker|Staging' ./internal/storage/ ./internal/resilience/

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Static checks, as run by CI's lint job: go vet, gofmt, and the repo's own
# analyzer suite (internal/analysis, surfaced as `nopfs lint`) enforcing the
# determinism / ctxfirst / goroutine / metricnames / exitcodes / retrybound
# contracts.
# On failure the recipe prints the suppression grammar so the fix path is
# one copy-paste away.
lint: vet fmt
	@$(GO) run ./cmd/nopfs lint ./... || { \
	  echo ''; \
	  echo 'nopfs lint found violations. Fix them, or suppress a single line with'; \
	  echo '    //lint:ignore <check> <reason>'; \
	  echo 'placed on (or directly above) the flagged line. The reason is mandatory:'; \
	  echo 'a reasonless ignore is itself a finding. Checks: determinism, ctxfirst,'; \
	  echo 'goroutine, metricnames, exitcodes, retrybound. See README "Static analysis".'; \
	  exit 1; }

# Fault-tolerance soak, as run by CI's chaos-soak job: the live chaos
# matrix (chan + tcp fabrics crossed with the node-crash, flaky-fabric, and
# meltdown presets) plus the elastic-membership matrix (ranks joining and
# leaving at epoch boundaries), under the race detector with the default
# resilience policy — exactly-once delivery, crash/elastic redistribution,
# and leak-free teardown get their memory-model audit on every push.
chaos-soak:
	$(GO) test -race -count=1 -run 'TestChaosSoak|TestElasticSoak' ./nopfs/

# Quick rot check: every benchmark must still compile and run one iteration.
# CI runs this on each push. Performance numbers come from the repo
# benchmark (benchmark/run.sh; see bench-harness below), not from these.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repo benchmark (BENCHMARK.json, benchmark/) is a Go module of its own,
# so `go build ./...` and `go test ./...` at the root never compile it and an
# API change in the packages it drives can break it silently. This target
# vets and self-tests the harness, then smoke-runs all seven workloads in
# both trace modes at toy sizes (run.sh builds into .bench_build/).
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh --seed 1 --quick

# Fuzz knobs: `make fuzz-smoke` runs each wire-format and spec-grammar fuzz
# target briefly (CI does this per push); raise FUZZTIME for a longer local
# session or the workflow_dispatch nightly job.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzHeader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/access -run '^$$' -fuzz '^FuzzParseAccessSpec$$' -fuzztime $(FUZZTIME)

# Coverage gate for the core packages: fails when total statement coverage
# of internal/... drops below COVER_MIN percent. CI runs this per push.
COVER_MIN ?= 80

cover:
	@trap 'rm -f .cover.out' EXIT; \
	$(GO) test -coverprofile=.cover.out ./internal/... || { echo "cover: go test failed (not a gate violation)"; exit 1; }; \
	total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total internal/... coverage: $$total% (gate: $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	{ echo "coverage below gate"; exit 1; }

# ROADMAP item 10's yardstick: lines of non-test, non-testdata Go in the root
# module (benchmark/ is a module of its own and is not counted).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l

# Line-count ratchet, run by CI's lint job: fails when `make loc` exceeds
# LOC_MAX. A PR that needs more lines raises the number here, in its own
# diff, where a reviewer sees it; a PR that deletes lowers it.
LOC_MAX ?= 16724

loc-gate:
	@n=$$($(MAKE) -s loc); \
	echo "non-test Go lines: $$n (gate: $(LOC_MAX))"; \
	[ "$$n" -le "$(LOC_MAX)" ] || { echo "line count above gate"; exit 1; }

# Mutation table (internal/invariant/testdata/mutants.txt): each row is a
# one-line mutant of a source file and the tests that must kill it. Per row
# the loop writes the mutated copy to a temp dir, overlays it on the build
# (`go test -overlay`) and runs the named tests; it fails when a mutant
# survives, does not build, or a named test is not among the failures. CI's
# mutate job runs it per push.
mutate:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; fail=0; tab=$$(printf '\t'); \
	while IFS="$$tab" read -r name file orig mut pkgs tests; do \
	  case "$$name" in ''|'#'*) continue;; esac; \
	  match='{ l = $$0; sub(/^[ \t]+/, "", l) } l == ENVIRON["ORIG"]'; \
	  n=$$(ORIG="$$orig" awk "$$match { c++ } END { print c+0 }" "$$file"); \
	  if [ "$$n" != 1 ]; then echo "mutate: $$name: original line occurs $$n times in $$file"; fail=1; continue; fi; \
	  ORIG="$$orig" MUT="$$mut" awk "$$match"' { match($$0, /^[ \t]*/); $$0 = substr($$0, 1, RLENGTH) ENVIRON["MUT"] } { print }' \
	    "$$file" > "$$tmp/$$name.go"; \
	  printf '{"Replace":{"%s":"%s"}}' "$$PWD/$$file" "$$tmp/$$name.go" > "$$tmp/$$name.json"; \
	  if out=$$($(GO) test -overlay "$$tmp/$$name.json" -count=1 -run "^($$(echo "$$tests" | tr , '|'))$$" \
	    $$(echo "$$pkgs" | tr , ' ') 2>&1 </dev/null); then echo "mutate: $$name survived"; fail=1; continue; fi; \
	  killed=1; \
	  for t in $$(echo "$$tests" | tr , ' '); do \
	    echo "$$out" | grep -qF -- "--- FAIL: $$t (" || { echo "mutate: $$name: $$t did not fail"; killed=0; fail=1; }; \
	  done; \
	  if [ $$killed = 1 ]; then echo "mutate: $$name killed by $$tests"; else echo "$$out" | tail -n 5; fi; \
	done < internal/invariant/testdata/mutants.txt; \
	exit $$fail

# Tier-1 verification (ROADMAP).
verify: build test
