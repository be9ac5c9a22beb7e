# Convenience targets; tier-1 verification stays plain
# `go build ./... && go test ./...`.

.PHONY: build test race bench bench-bounded bench-module docs-check vet lint

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# go vet over everything, plus the delta-write packages by name so the
# critical list survives any future narrowing of the wildcard.
vet:
	go vet ./...
	go vet ./internal/mvstore/... ./internal/exec/... ./internal/core/... ./internal/chainsim/... ./internal/bench/... ./cmd/...

# txlint: the determinism-and-discipline analyzer suite (tools/lint).
# Fails on any unwaived finding; -waived lists accepted waivers.
lint:
	go run ./tools/lint ./...

# One-iteration pass over every recorded-baseline experiment.
bench:
	go test -run NONE -bench 'Comparison$$' -benchtime 1x .

# The wall-clock benchmark's memory-bounded workload alone, five untraced
# runs plus the traced per-layer one: the number the base-layer write path
# is held to (see benchmarks/README.md). run.sh works from benchmarks/, so
# the file lands in the git-ignored benchmarks/results/bounded.json.
bench-bounded:
	bash benchmarks/run.sh --workload bounded-wide --repeat 5 --out results/bounded.json

# benchmarks/ is its own module: tier-1 does not reach it, so vet and test
# it by name after touching a seam it decorates (wal.FS, wal.File,
# exec.StateBackend, exec.CheckpointSink).
bench-module:
	cd benchmarks && go vet ./... && go test ./...

# Fails on intra-repo markdown links that point at missing files
# (tools/docscheck). CI runs this after vet.
docs-check:
	go run ./tools/docscheck
