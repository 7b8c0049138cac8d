# seamlesstune build targets. Everything is stdlib Go; no external tools.

GO ?= go

.PHONY: all check build test test-short test-race cover bench bench-record bench-check fuzz experiments examples vet staticcheck fmt clean

all: build vet test

# check is the tier-1 verification gate: vet, the full suite, and the
# race detector over the concurrent engine.
check: vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is advisory locally (the toolchain ships without it) and
# enforced in CI, which installs it first.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 \
		&& staticcheck ./... \
		|| echo "staticcheck not installed; skipping (CI runs it)"

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One benchmark per paper table/figure/claim; metrics in the output are
# the reproduction record (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# The micro-benchmark registry, BENCH.json (see cmd/benchguard).
# bench-record rewrites the samples of every row, or of ROWS="a b";
# bench-check gates fresh medians against them.
bench-record:
	$(GO) run ./cmd/benchguard record $(ROWS)

bench-check:
	$(GO) run ./cmd/benchguard check

# Short fuzz pass over the WAL record decoder — the parser that faces
# arbitrary on-disk bytes after a crash. CI runs the same smoke; longer
# runs extend -fuzztime.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRecord' -fuzztime $(FUZZTIME) ./internal/wal

# Regenerate every paper artifact (T1, F1-F3, C1-C12, T1X, A1).
experiments:
	$(GO) run ./cmd/experiments -run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/retuning
	$(GO) run ./examples/transfer
	$(GO) run ./examples/slotradeoff
	$(GO) run ./examples/whatif

clean:
	$(GO) clean -testcache
