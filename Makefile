# Convenience targets mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build vet lint test race fuzz chaos trace bench metrics-report cloudd coord store loc

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The sizes a simplification is judged by (ROADMAP item 7; the CI
# quick job echoes them): non-test Go outside bench/ and testdata/,
# the settable values — exported fields of its `type …Config struct`
# and `type …Options struct` declarations, each name of a
# `A, B int` line counted — and the flags each command defines.
loc:
	@printf 'non-test Go lines outside bench/ and testdata/: '; \
		find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
	@printf 'exported fields of non-test Config/Options structs: '; \
		find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs awk ' \
			/^type [A-Za-z0-9_]*(Config|Options) struct \{/ { f = 1; next } \
			f && /^\}/ { f = 0 } \
			f && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) { n += split(substr($$0, RSTART, RLENGTH), _, ",") } \
			END { print n + 0 }'
	@for d in cmd/whowas*; do \
		printf '%-26s %2d flags\n' $$d $$(cat $$d/*.go | grep -cE '\b(flag|fs)\.(String|Int|Int64|Bool|Duration|Float64)(Var)?\('); \
	done

# Project-invariant static analysis (what the CI lint job runs): vet
# (whose copylocks check is the module's mutex-copy rule), gofmt, then
# the internal/lint suite — wiretag, errcheck, lockdisc — as a test
# over the whole module. Non-zero exit on any finding.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) test -count=1 -run 'TestRepoHeadClean|TestAnalyzerGoldens' ./internal/lint/

# Fast loop: skips the full-campaign integration tests.
test:
	$(GO) test -short ./...

# What CI runs; the campaign fixtures shrink under -race. The
# concurrency-heavy packages (among them the probe path's, whose
# deadline contexts and wait timers are reused across probes), the
# round's lane tests and colstore's parallel read paths go first,
# twice, so a schedule-dependent race has two chances to interleave
# before the full-module pass. The clustering leg holds the workers
# of level 2 and of the gap statistic's count curves to
# schedule-independent cluster IDs, and to the map-based oracle
# (TestRunMatchesReference). The colstore
# leg includes the narrowed reads: the decode on parallel workers and
# the dictionary chunks they load on first use, the stream directory's
# bounds, the encoder's reused match table, and
# the analyses' cross-backend oracle and read counters, and the scan
# buffers: each Scan decodes into a pair no concurrent Scan holds, and
# reads the next round on a helper goroutine while its fold runs on
# this one (the store package's Scan tests: the one-round window, a
# fold that stops or panics, a read-ahead that fails). The
# features leg holds a campaign's extraction cache, shared by
# concurrent lanes, to the uncached FromPage, and its records to
# keeping no page alive.
race:
	$(GO) test -race -count=2 -timeout 20m \
		./internal/coord/ \
		./internal/cloudapi/ ./internal/ops/ ./internal/httpd/ \
		./internal/netsim/ ./internal/scanner/ ./internal/faults/
	$(GO) test -race -count=2 -timeout 20m \
		-run 'TestRunLane|TestRoundStorePutFailure|TestCampaignCancelMidRound|TestPipelineShardDigestIdentity' \
		./internal/core/
	$(GO) test -race -count=2 -timeout 20m \
		-run 'TestDeterministicClusterIDs|TestMembersInRoundIPOrder|TestClusteringInvariants|TestRunPersistsThroughColumnarBackend|TestRunMatchesReference' \
		./internal/cluster/
	$(GO) test -race -count=2 -timeout 20m \
		-run 'TestConcurrentReadersAndWriter|TestModelAgainstMemoryBackend|TestRecordsAreNotAliased|TestSegmentFilesLifecycle|TestParallelDecodeDeterministic|TestParallelChunkLoadDeterministic|TestStreamDirectoryBounds|TestCompressorReuse|TestNarrowed|TestScan' \
		./internal/store/colstore/ ./internal/analysis/ ./internal/store/
	$(GO) test -race -count=2 -timeout 20m \
		-run 'TestExtractorMatchesFromPage|TestRecordsRetainNoBody|TestExtractorBound' \
		./internal/features/
	$(GO) test -race -timeout 40m ./...

# Short native-fuzzing smoke over the parser surfaces (what the CI
# fuzz job runs). The seed corpora always run under plain `make test`;
# this target additionally explores for a bounded time per target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/htmlparse -fuzz FuzzParseHTML -fuzztime $(FUZZTIME)
	$(GO) test ./internal/simhash -fuzz FuzzSimhash -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim -fuzz FuzzRequestHead -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/colstore -fuzz FuzzSegment -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/store/colstore -fuzz FuzzDecompress -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cloudapi -fuzz FuzzProbeFrames -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cloudapi -fuzz FuzzChannelPreamble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -fuzz FuzzScenarioLoad -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coord -fuzz FuzzCoordRequests -fuzztime $(FUZZTIME)

# Fault-injection + resilience suites (what the CI chaos job runs):
# -count=2 replays every deterministic campaign against its first
# digest.
chaos:
	$(GO) test -race -count=2 -timeout 40m \
		./internal/faults/ ./internal/scanner/ ./internal/fetcher/ ./internal/store/
	$(GO) test -race -count=2 -timeout 40m -run TestChaos ./internal/core/
	$(GO) run ./cmd/whowas -scale 4096 -rounds 3 -q \
		-faults scenarios/chaos.json -retries 3 -round-timeout 2m \
		-cluster=false -carto=false -metrics chaos-metrics.json
	@echo "wrote chaos-metrics.json"

# Flight recorder: a short faulty campaign with the ops endpoint and
# span journal on, then the per-round latency breakdown (what the CI
# trace job runs).
trace:
	$(GO) run ./cmd/whowas -scale 8192 -rounds 2 -q \
		-faults scenarios/chaos.json -retries 3 -round-timeout 2m \
		-cluster=false -carto=false \
		-ops-addr 127.0.0.1:8377 -trace-journal trace-journal.jsonl
	$(GO) run ./cmd/whowas-query trace -journal trace-journal.jsonl -slowest 3

# The repository's one benchmark (bench/, declared in BENCHMARK.json):
# four workloads, six end-to-end metrics each. It exits non-zero when
# any built-in check fails (fleet digest = in-process reference,
# colstore digest = memory digest, every History answer). The CI bench
# job runs it through scripts/bench_gate.sh, which also holds the
# counts to bench/baseline.json: no failed operation, bytes and
# allocations per record not above it (a fall passes and is logged as
# "baseline stale" for the next [benchmark] change; campaign-local's
# gob bytes must match exactly).
bench:
	bash bench/run.sh --seed 1

# Cloud-boundary acceptance gate (what the CI cloudd job runs): start
# whowas-cloudd, run the same seeded campaign over the wire and
# in-process, and require byte-identical store digests — then the
# daemon's counters: at most one data connection per four dials,
# nothing left parked.
cloudd:
	sh scripts/cloudd_gate.sh

# Distributed-campaign acceptance gate (what the CI coord job runs):
# start whowas-cloudd, run the same seeded campaign single-process and
# via whowas-coordinator fleets of 1/2/4 workers (one of the 4 is
# SIGKILLed mid-campaign), and require byte-identical store digests.
coord:
	sh scripts/coord_gate.sh

# Storage-engine acceptance gate (what the CI store job runs): the
# same seeded campaign on the in-memory and columnar backends at 1/2/4
# pipeline shards plus a 2-worker fleet on -store-dir, all digests and
# -out gobs byte-identical, and gob->columnar conversion
# digest-identical.
store:
	sh scripts/store_gate.sh

# Example pipeline-metrics report (README "Observability").
metrics-report:
	$(GO) run ./cmd/whowas -cloud ec2 -scale 1024 -rounds 3 -metrics metrics.json
	@echo "wrote metrics.json"
