GO ?= go

.PHONY: build test race vet bench benchjson oracle loadtest loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Machine-readable experiment results: one BENCH_<id>.json per table,
# written into the repo root (CI uploads them as an artifact).
benchjson:
	$(GO) run ./cmd/tcqbench -json .

# Differential correctness oracle: 200 seeded workloads diffed against
# the reference interpreter across the config sweep, then again with
# queue-full fault injection. Failures leave tcqcheck-seed*.tcq repros.
oracle:
	$(GO) run ./cmd/tcqcheck -seeds 200
	$(GO) run ./cmd/tcqcheck -seeds 200 -chaos

# Fan-out smoke gate (the CI job): 1k subscribers under the block
# policy for 10s must lose nothing and keep p99 delivery latency under
# 250ms; the latency histogram lands in loadtest-hist.txt. The full
# 100k-subscriber E11 run is `go run ./cmd/tcqload` with defaults.
loadtest:
	$(GO) run ./cmd/tcqload -subs 1000 -dur 10s -policy block \
		-assert-zero-loss -max-p99 250ms -hist loadtest-hist.txt

# Non-test Go lines per package and in total, excluding bench/ and
# examples/ — the number ROADMAP item 3 tracks PR over PR (CI prints the
# total in the test job summary).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' ! -path './.*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

clean:
	$(GO) clean ./...
	rm -f BENCH_*.json loadtest-hist.txt
