GO ?= go

.PHONY: ci fmt vet lint build test race model-soak compose-soak nemesis-smoke bench bench-json alloc-regression fuzz-smoke examples paper-smoke crash-smoke benchmark benchmark-compare benchmark-test

ci: fmt vet lint build race model-soak compose-soak nemesis-smoke benchmark-test examples alloc-regression fuzz-smoke paper-smoke crash-smoke

# The end-to-end benchmark every "faster" is judged by (BENCHMARK.json,
# benchmark/README.md): four workloads through the full serve stack, each
# untraced and traced, ~4 min. It builds into the git-ignored .bench_build/.
benchmark:
	bash benchmark/run.sh

# Metric-by-metric deltas between two result files of `make benchmark`:
#   make benchmark-compare OLD=old.json NEW=new.json
benchmark-compare:
	bash benchmark/run.sh -compare $(OLD) $(NEW)

# The benchmark is a nested module (txcache/benchmark, replace txcache =>
# ../) that the root module's ./... cannot see, so its vet and tests — which
# compile it against this tree — are their own step.
benchmark-test:
	cd benchmark && $(GO) vet . && $(GO) test -race .

# Repo-invariant static analysis (cmd/txcache-lint): lock order (and no lock
# in internal/mvcc, which Table.mu guards alone), context threading,
# deterministic time, bounded dials/writes and one transport (outside
# internal/rpc nothing dials, accepts, reads frames off a connection or sets
# its deadlines), atomic-field discipline, pool hygiene.
# Suppressions are //lint:allow <analyzer> <reason>; an undocumented or
# unused suppression is itself a finding.
# Then the one-interval guard: a dependency is proven on one bounded interval
# and is open or closed there (DESIGN.md "Still-valid composition"), and a
# cache node derives what it can vouch for from the stream it has seen
# (DESIGN.md "Crossing a gap"). A second "how far was this checked" variable
# in internal/core, put-time arithmetic that patches one in, an
# operator-seeded node horizon, and a message handed to a node around its
# stream (ApplyInvalidation called from outside internal/cacheserver) are
# refused by name: each is a way to serve a value nobody checked.
lint:
	timeout 120 $(GO) run ./cmd/txcache-lint ./...
	@out="$$( { grep -rn 'SetHorizon' --include='*.go' --exclude='*_test.go' --exclude-dir=testdata cmd examples internal *.go; \
		grep -rn '\.ApplyInvalidation(' --include='*.go' --exclude='*_test.go' --exclude-dir=testdata --exclude-dir=cacheserver cmd examples internal *.go; \
		grep -rnE '\.through\b|genSnap = min\(' --include='*.go' --exclude='*_test.go' internal/core; } || true)"; if [ -n "$$out" ]; then \
		echo "a second statement of how far a value is proven is back; a frame carries one proven interval and an open flag (put derives genSnap from it), and a node's floor and horizon come from the stream it has seen (ConsumeStream, the TCP push), never from a caller:"; \
		echo "$$out"; exit 1; fi

# Kill-9 crash-recovery property test: build the real txcache-dbd, drive
# writers over the wire, SIGKILL it repeatedly, and check on every reboot
# that acked commits survived, surviving rows are a contiguous per-worker
# prefix, the counters oracle matches, and the cache node — told nothing but
# what its stream carries — serves no entry across the messages the crash
# lost (the canary of crash_test.go), and the pincushion the daemon hosts
# boots with no pin and serves a read-only transaction. Bounded: a wedged
# recovery is a failure, not a hung pipeline.
crash-smoke:
	timeout 120 $(GO) test -race -run TestCrashRecovery -count=3 .
	timeout 120 $(GO) test -race -run TestReplayEquivalence ./internal/db

# The paper's evaluation still runs: every experiment of txcache-bench on the
# tiny dataset, under a minute. It exits nonzero if an experiment fails or a
# point serves nothing; the shapes themselves are asserted on the committed
# default-scale BENCH_paper.json (TestPaperShapes), not on this run — at this
# scale a 150-item dataset is not the paper's regime.
paper-smoke:
	timeout 120 $(GO) run ./cmd/txcache-bench -exp all -scale test -warm 300ms -measure 700ms -json /dev/null

# Build and briefly run every example against the public API — the
# examples are the documented quickstart path, so "compiles and runs" is a
# CI property, not a hope. Each run is bounded: a hang is a failure, not a
# stuck pipeline.
examples:
	$(GO) build ./examples/... ./cmd/...
	timeout 120 $(GO) run ./examples/quickstart >/dev/null
	timeout 120 $(GO) run ./examples/wiki >/dev/null
	timeout 120 $(GO) run ./examples/auction >/dev/null

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE '//[[:space:]]*nolint' --include='*.go' . || true)"; \
		if [ -n "$$out" ]; then \
		echo "nolint comments are not honored here; use //lint:allow <analyzer> <reason>:"; \
		echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The cache node's put-vs-invalidation ordering argument (server.go,
# ApplyInvalidation) is checked by the oracle model tests and by nothing
# else, so CI runs them more than once: five -race passes of the concurrent
# pipelined model and the sequential one — and of TestStreamGap, whose
# concurrent flow is the same argument for a put racing a gap, and of
# TestHistoryMatchesPairwise, which holds the history's replay to the pairwise
# rule over seeded streams that wrap its ring and its tag arena and cross
# gaps — and of the bus's lapped-reader flows, TestSubscriptionBounded
# (TestStreamGapAfterOverflow is the node's side of them) — and of
# TestGoldenTrace, whose committed counters are worth having only if five
# passes read them the same.
# Bounded: a hang is a failure.
model-soak:
	timeout 300 $(GO) test -race -count=5 -run 'TestConcurrentPipelinedModel|TestServerMatchesModel|TestStreamGap|TestHistoryMatchesPairwise|TestSubscriptionBounded|TestGoldenTrace' ./internal/cacheserver ./internal/invalidation ./internal/bench

# The transactional guarantee under concurrency has one gate too: writers,
# composing readers and the put oracle of TestStillValidComposition's
# ConcurrentFlow. An interval that reaches past its proof shows only when the
# host is busy (alone on an idle box a parent that failed 1.3% of runs passed
# 100 of 100), so three -race processes run at once, forty passes each.
# Bounded: a hang is a failure.
compose-soak:
	timeout 300 sh -c 'pids=; for i in 1 2 3; do \
		$(GO) test -race -count=40 -run "TestStillValidComposition/ConcurrentFlow" ./internal/core & \
		pids="$$pids $$!"; done; \
		rc=0; for p in $$pids; do wait $$p || rc=1; done; exit $$rc'

# The nemesis on the whole TCP topology (bench.StartServeStack on
# rpctest.Net): the invalidation stream to one node cut for two seconds under
# load, and cut while more commits go by than the bus's ring holds; and the
# library's link to the database daemon, which hosts the pincushion, cut for
# two seconds under load, leaving no pin behind. Two -race passes each, compiled
# first so the bound is the tests'. Bounded: a hang is a failure.
nemesis-smoke:
	$(GO) test -race -count=1 -run '^$$' .
	timeout 90 $(GO) test -race -count=2 -run 'TestServeSurvivesCutPushStream|TestServeSurvivesStreamOverflow|TestServeSurvivesCutPincushion' .

# Short fuzz passes over the wire codec, the opcode handlers of all three
# wire services, the WAL record framing, what recovery decodes inside it
# (snapshot sections, log records), the cached-payload decoder and the SQL
# lexer and parser: malformed input must error, never panic. The two recovery
# targets go on to rebuild the indexes of whatever they accepted and to read
# every column of every row, and FuzzRow holds the packed row's decoder to a
# u16 and that many DecodeValues. FuzzTreeOps is the odd one out: its input is
# a run of index operations, and the tree must agree with a map after them.
# (`go test -fuzz` accepts one target per
# invocation, hence one run each; FuzzDecodeCacheable decodes every input as
# twenty types, so the default minute of minimising each new input would eat
# its whole run.)
fuzz-smoke:
	$(GO) test ./internal/wire -run xxx -fuzz FuzzReadFrame -fuzztime=10s
	$(GO) test ./internal/wire -run xxx -fuzz FuzzFrameReader -fuzztime=10s
	$(GO) test ./internal/wire -run xxx -fuzz FuzzDecoder -fuzztime=10s
	$(GO) test ./internal/wal -run xxx -fuzz FuzzWALDecode -fuzztime=10s
	$(GO) test ./internal/cacheserver -run xxx -fuzz FuzzHandle -fuzztime=10s
	$(GO) test ./internal/cacheserver -run xxx -fuzz FuzzShardRouting -fuzztime=10s
	$(GO) test ./internal/pincushion -run xxx -fuzz FuzzPincushionHandle -fuzztime=10s
	$(GO) test ./internal/db/dbnet -run xxx -fuzz FuzzDBNetHandle -fuzztime=10s
	$(GO) test ./internal/db -run xxx -fuzz FuzzSnapshotSection -fuzztime=10s
	$(GO) test ./internal/db -run xxx -fuzz FuzzReplayRecord -fuzztime=10s
	$(GO) test ./internal/core -run xxx -fuzz FuzzDecodeCacheable -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/btree -run xxx -fuzz FuzzTreeOps -fuzztime=10s
	$(GO) test ./internal/sql -run xxx -fuzz FuzzParse -fuzztime=10s
	$(GO) test ./internal/sql -run xxx -fuzz FuzzRow -fuzztime=10s

# Concurrent-engine and cache-wire benchmarks (the CHANGES.md perf
# trajectory), and what the rpc transport costs over a raw loopback round
# trip.
bench:
	$(GO) test -run xxx -bench 'BenchmarkCallRoundTrip|BenchmarkRawRoundTrip' -benchtime=2s -benchmem ./internal/rpc
	$(GO) test -run xxx -bench 'BenchmarkParallelCommit|BenchmarkReadersDuringCommits' -benchtime=2s -benchmem .
	$(GO) test -run xxx -bench BenchmarkCacheLookupTCP -benchtime=2s -benchmem ./internal/cacheserver
	$(GO) test -run xxx -bench 'BenchmarkQueryPointSelect|BenchmarkFilteredScan|BenchmarkMakeCacheable|BenchmarkBeginCommitRO|BenchmarkInvalidateApply|BenchmarkHistoryReplay' -benchtime=2s -benchmem ./internal/db ./internal/core ./internal/cacheserver
	$(GO) test -run xxx -bench BenchmarkRowCol -benchtime=2s -benchmem ./internal/sql
	$(GO) test -run xxx -bench 'BenchmarkGet|BenchmarkApplyBatch|BenchmarkInsert' -benchtime=2s -benchmem ./internal/btree
	$(GO) test -run xxx -bench 'BenchmarkStoreInsert|BenchmarkStoreVisibleAt' -benchtime=2s -benchmem ./internal/mvcc

# BENCH_layers.json, the per-layer file: `make bench` five times over
# (GOFLAGS reaches go test alone), as the median, min and max of each
# benchmark's ns/op, B/op and allocs/op with the host's fingerprint
# (go test ./internal/bench -run TestLayersFile holds the file to that).
# Commit it with the change it measures, so that
# `git log -p BENCH_layers.json` is each layer's before and after.
bench-json:
	GOFLAGS=-count=5 $(MAKE) --no-print-directory bench > .bench_layers.txt
	$(GO) run ./internal/bench/layers .bench_layers.txt BENCH_layers.json

# Allocation-budget regression: the hot paths (point select, cacheable hit,
# leased Begin+Commit, invalidation apply, single-row commit, vacuum pass)
# must stay under their pinned allocs/op ceilings, and a cache node's first sight of a tag under
# its bytes ceiling. An index entry must stay under its bytes ceiling too
# (TestBytesPerEntry: live heap per key in four build orders), an insert
# that finds room in its leaf must not allocate, and a row must stay under
# its own (TestBytesPerRow: live heap per row with one version, with two,
# and vacuumed back to one). And the three together — rows as packed bytes,
# their directory, their indexes — must stay under the dataset's ceiling
# (TestDatasetBytes: live heap of the benchmark's dataset in a bare engine).
# A cache node's invalidation history must stay the same size once full and
# under its bytes ceiling a retained message (TestHistoryBytes), a message
# pushed over TCP must allocate nothing (TestAllocBudgetPush), and a
# still-valid version's bookkeeping must stay under its own ceiling
# (TestVersionBytes).
alloc-regression:
	$(GO) test -run 'TestAllocBudget' ./internal/db ./internal/core
	$(GO) test -run 'TestAllocBudget|TestHistoryBytes|TestVersionBytes' ./internal/cacheserver
	$(GO) test -run 'TestBytesPerEntry|TestInsertAllocs' ./internal/btree
	$(GO) test -run 'TestBytesPerRow' ./internal/mvcc
	$(GO) test -run 'TestDatasetBytes' ./internal/rubis
