# Common dev entry points. The module is stdlib-only: every target runs
# with a bare Go toolchain and no network.

GO ?= go

.PHONY: build test race vet lint bench-baseline bench-gate cache-sanity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/epvet ./...

# bench-baseline snapshots the whole benchmark suite (one iteration per
# benchmark keeps it fast; allocs/op is iteration-count independent) as
# BENCH.json via cmd/benchjson — the single committed baseline; earlier
# snapshots live in git history. Commit the refreshed BENCH.json when a
# PR intentionally moves a hot path; CI diffs the current run against it
# (`benchjson -diff BENCH.json bench-current.json`) so any drift is
# visible in review, and `benchjson -gate BENCH_BUDGET.json` holds the
# headline benchmarks to explicit allocs/op budgets.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... | $(GO) run ./cmd/benchjson > BENCH.json

# bench-gate replays the suite and enforces the committed allocs/op
# budgets — the deterministic benchmark metric — without touching the
# committed baselines.
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... | $(GO) run ./cmd/benchjson > /tmp/bench-current.json
	$(GO) run ./cmd/benchjson -gate BENCH_BUDGET.json /tmp/bench-current.json

# cache-sanity runs the timing-gated warm-vs-cold memoization guard
# (skipped by default because it is wall-clock based).
cache-sanity:
	EP_CACHE_SANITY=1 $(GO) test -run TestWarmCacheFasterThanCold -v ./internal/campaign/
