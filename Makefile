GO ?= go

.PHONY: all build fmt vet test race bench fuzz-smoke serve-smoke repl-smoke shard-smoke trace-smoke wal-crash ci

all: ci

build:
	$(GO) build ./...

# Formatting gate: fails when any Go file differs from gofmt's output.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector gate: every concurrency-sensitive test (pager races,
# singleflight, QueryBatch, SyncIndex stress, server admission/drain,
# crash matrix, compaction vs concurrent commits, durable open) must
# pass under -race. The pager's shared read views and the server's
# parallel response encoder get ten repetitions of their concurrency
# tests.
race:
	$(GO) test -race -run 'Concurrent|Race|Sync|Singleflight|Batch|Admission|Drain|Gate|Histogram|Serve|Crash|Repl|Shard|Compact|DurableOpen' ./internal/pager ./internal/server ./...
	$(GO) test -race -count=10 -run 'Concurrent|Singleflight' ./internal/pager ./internal/server

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Short coverage-guided runs of every fuzz target (go test -fuzz takes
# one target per invocation).
fuzz-smoke:
	$(GO) test -fuzz FuzzBuildQuery -fuzztime 20s -run '^$$' .
	$(GO) test -fuzz FuzzRelateSymmetry -fuzztime 20s -run '^$$' ./internal/geom
	$(GO) test -fuzz FuzzPlanarize -fuzztime 20s -run '^$$' ./internal/geom
	$(GO) test -fuzz FuzzShardRoute -fuzztime 20s -run '^$$' .
	$(GO) test -fuzz FuzzQueryResponseEncode -fuzztime 20s -run '^$$' ./internal/server

# End-to-end serving gate: gen → build → segdbd → segload → /statsz.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end replication gate: leader + follower, segload read split,
# QueryBatch differential, kill -9 the follower mid-stream, WAL rotation
# with re-snapshot, lag series on /metricsz.
repl-smoke:
	./scripts/repl_smoke.sh

# End-to-end sharding gate: segdb shard → segdbd -shards=4 → mixed
# segload run → kill -9 mid-write → restart → differential vs unsharded.
shard-smoke:
	./scripts/shard_smoke.sh

# End-to-end tracing gate: traceparent round trip, /tracez span trees
# over shard fan-out and the WAL write path, stage histograms, the
# trace-linked slow log, segload -trace, and tracing-off going dark.
trace-smoke:
	./scripts/trace_smoke.sh

# WAL crash-matrix gate: kill the log at every record boundary and the
# checkpoint at every step, then recover and verify — under -race. The
# shard matrices kill one shard's WAL/checkpoint while the others commit.
wal-crash:
	$(GO) test -race -run 'DurableCrash|DurableCheckpoint|WALCrash|TornTail|ShardCrash' . ./internal/wal ./internal/shard

ci: fmt vet build test race wal-crash serve-smoke repl-smoke shard-smoke trace-smoke
