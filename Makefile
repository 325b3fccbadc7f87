GO ?= go

.PHONY: ci fmt vet build test race bench bench-smoke bench-parallel bench-load metrics-smoke load-smoke chaos-smoke stream-smoke run fuzz-seeds golden test-wrappers

# ci is the full local gate: formatting, static checks (go vet), build,
# tests under the race detector, the wrapper conformance suite, the
# persistence-format guards (fuzz seed corpus + golden snapshots), a
# one-iteration -benchmem pass over every benchmark so the bench
# harness can't silently rot, the sharded-evaluation speedup gate, the
# metrics exposition smoke check, a short admission-control load
# smoke, the fault-tolerance chaos drill, and the streaming
# bounded-memory gate.
ci: fmt vet build race test-wrappers fuzz-seeds golden bench-smoke bench-parallel metrics-smoke load-smoke chaos-smoke stream-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the tier benchmarks at full fidelity, writes the parsed
# results (ns/op, B/op, allocs/op per benchmark) to BENCH_PR10.json —
# the committed perf baseline of the current PR — and prints the diff
# against the previous baseline.
bench:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json -compare BENCH_PR8.json

# bench-smoke is the ci benchmark gate: one iteration of everything,
# with allocation accounting compiled in.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# bench-parallel is the ci sharded-evaluation gate: on a machine with
# at least two cores, the sharded Table 1 suite must beat the serial
# path (the test skips itself on one core, where sharding degrades to
# the serial loop by design).
bench-parallel:
	$(GO) test -run 'TestParallelSpeedupSmoke' -count=1 -v .

# metrics-smoke boots the server in-process on a random port, drives a
# federation and queries over HTTP, and fails on malformed Prometheus
# exposition or a JSON metrics snapshot missing expected fields.
metrics-smoke:
	$(GO) run ./cmd/metricssmoke

# load-smoke is the ci admission-control gate: a short self-served load
# run (closed-loop workers over a small in-flight limit, zipf session
# popularity, mid-flight intersect/refine) that fails on request
# errors, malformed exposition, or a dead admission controller.
load-smoke:
	$(GO) run ./cmd/loadgen -smoke -sessions 4 -workers 8 -duration 2s \
		-max-inflight 4 -max-queue 8 -mutate-every 10

# chaos-smoke is the ci fault-tolerance gate: an in-process two-source
# federation where one source goes hard-down after its extent cache is
# warm. It fails unless queries keep answering from the stale extent
# with a degraded warning naming the source, strict (require-fresh)
# requests are refused with 503, /healthz reports the open circuit
# breaker, and the breaker metric families appear in the exposition.
chaos-smoke:
	$(GO) run ./cmd/chaossmoke

# stream-smoke is the ci bounded-memory gate for the streaming extent
# pipeline: a 1.2M-row sqlmem-backed SQL source queried twice through
# the in-process daemon must keep the live heap, both its peak sampled
# while the queries run and its value after a final GC, under a small
# ceiling (a materialised extent would cost hundreds of megabytes).
stream-smoke:
	$(GO) run ./cmd/streamsmoke

# bench-load regenerates BENCH_PR7.json, the committed load/overload
# baseline: many more closed-loop workers than admitted slots plus an
# open-loop arrival stream. The in-flight limit sits well below the
# worker count (and any plausible core count) so the run genuinely
# saturates: the report captures real 429s, bounded queue waits and
# tail latency under overload rather than an idle queue.
bench-load:
	$(GO) run ./cmd/loadgen -sessions 64 -workers 64 -duration 10s \
		-max-inflight 2 -max-queue 8 -rate 200 -mutate-every 40 \
		-out BENCH_PR7.json

# fuzz-seeds runs every committed fuzz seed (malformed repo snapshots,
# malformed REST payloads) as plain tests — the CI-safe equivalent of a
# -fuzztime run.
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./internal/repo ./internal/wrapper

# golden checks the committed snapshots (full session, and the sql/rest
# wrapper kinds) still match a fresh export byte for byte and still
# load (format stability).
golden:
	$(GO) test -run 'TestGoldenSnapshot' ./internal/core

# test-wrappers runs the wrapper conformance suite — every backend
# (CSV, Static, XML, SQL via the in-process sqlmem driver, REST via
# httptest) against the full Wrapper contract — under the race
# detector. No network or external dependencies.
test-wrappers:
	$(GO) test -race ./internal/wrapper/... ./internal/sqlmem

# run starts the dataspace daemon on :8080.
run:
	$(GO) run ./cmd/automedd -addr :8080
