GO ?= go

.PHONY: all build test race lint vet verify benchmark clean \
	fuzz-seeds fuzz trace-oracle elision-oracle tx-oracle trace suite examples

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package runs for minutes under the race detector (the
# quick suite four times: sequential and pooled once each, shared by the
# determinism tests, plus its SimWorkers=4 and traced comparisons), which
# on slow machines exceeds the default per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Every byte-level loader's fuzz target, one per package.
FUZZ_PKGS = ./internal/netproto/ ./internal/core/compiler/ ./internal/scenario/ \
	./internal/testbed/ ./internal/core/htpr/

# Replay the fuzz targets' seeds (testdata/fuzz plus in-harness seeds: the
# decoder corpus, shipped .nt programs and suites, pcaps, eviction digests)
# as regression tests.
fuzz-seeds:
	$(GO) test -run Fuzz $(FUZZ_PKGS)

# Open-ended fuzzing sessions, 60 s each: the packet decoder, the .nt front
# end, the suite loader, the pcap reader, the eviction-digest decoder.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStackDecode -fuzztime 60s ./internal/netproto/
	$(GO) test -run '^$$' -fuzz FuzzParseCompile -fuzztime 60s ./internal/core/compiler/
	$(GO) test -run '^$$' -fuzz FuzzSuiteParse -fuzztime 60s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz FuzzReadPcap -fuzztime 60s ./internal/testbed/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEviction -fuzztime 60s ./internal/core/htpr/

# Full-trace differential oracle: the per-packet lifecycle trace must be
# bit-identical between the sequential and parallel engines.
trace-oracle:
	$(GO) test -race -run TestTrace -count=1 ./internal/experiments/ -v

# Idle-loop elision differential oracle (DESIGN.md §9.6): 500 randomised
# testbeds, each run with the loop model and with every hop a scheduled
# event, equal at every cut point; plus one test per wake source and the
# constructed same-picosecond tie.
elision-oracle:
	$(GO) test -race -run 'TestLoopElision|TestLoopWake|TestLoopIdles|TestSALUSequenceUnderElision' -count=1 . -v

# TX-path oracle (DESIGN.md §9.7-§9.9): a front-panel frame's MAC step is
# computed at egress end, not scheduled. Randomised switches against a
# reference FIFO at 50 ns cuts, constructed same-picosecond ties, the traced
# record sequence, the events-per-frame pin, workers 1 = 2 = 4 with the
# widened lookahead, the sink fold; randomised multicast and unicast rigs
# without frames on copies to counting sinks against the same rigs with a
# hook on every sink; and a sink's mode fixed while frames are in flight.
tx-oracle:
	$(GO) test -race -run 'TestTxPath|TestMcastFrameless' -count=1 ./internal/asic/ -v
	$(GO) test -race -run 'TestSinkModeFixedWhileFramesInFlight' -count=1 ./internal/testbed/ -v

# Traced sample run: writes a Perfetto-loadable trace of the observability
# workload (load at https://ui.perfetto.dev).
trace:
	$(GO) run ./examples/perfetto perfetto-trace.json

# Project analyzers: poolsafety, determinism, atcall, obsalloc (DESIGN.md §8),
# then the repo-wide guards CI's `go test ./...` enforces: the analyzers
# clean on the tree, no internal export that only tests reach, and every
# citation in the docs resolving.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/htlint ./...
	$(GO) test -count=1 -run 'TestRepositoryIsLintClean|TestNoDeadExports|TestDocCitationsResolve' ./internal/lint .

vet:
	$(GO) vet ./...

# Path-sensitive symbolic verification of the 18-program experiment corpus
# (no diagnostic of any severity; table5_ipscan's truncated header space is
# the one expected note), then the witness-packet differential: every
# extracted witness must replay bit-identically over a real asic frame and
# over the IR field map, and match the committed goldens
# (DESIGN.md §12.4–12.5).
verify:
	$(GO) test -race -run 'TestCorpusVerifiesClean|TestWitnessDifferential' -count=1 ./internal/experiments/

# Run the committed scenario suites on both engines (sequential, then the
# parallel LP engine with 4 workers); results land in /tmp. The sync test
# in internal/scenario pins examples/suites/starter.json to the built-in
# library, so this also exercises the committed file; paper-smoke.json
# carries the one committed cross-engine golden trace hash.
suite:
	$(GO) run ./cmd/hypertester -suite examples/suites/starter.json -results /tmp/suite-results.json
	$(GO) run ./cmd/hypertester -suite examples/suites/starter.json -simworkers 4 -results /tmp/suite-results-par.json
	$(GO) run ./cmd/hypertester -suite examples/suites/paper-smoke.json
	$(GO) run ./cmd/hypertester -suite examples/suites/paper-smoke.json -simworkers 4

# Run every example program end to end; each must exit 0. They are the only
# callers of some public API (ConnectLossy, Join, TopK).
EXAMPLES = $(patsubst %/main.go,./%,$(wildcard examples/*/main.go))

examples:
	@for e in $(EXAMPLES); do echo "== $$e"; $(GO) run $$e || exit 1; done

# The repo benchmark (BENCHMARK.json): five workloads, each checked against
# benchmark/testdata/golden.json; non-zero exit on any failed check.
benchmark:
	$(GO) run ./benchmark

clean:
	$(GO) clean ./...
