// Package txconcur is a from-scratch Go reproduction of "On Exploiting
// Transaction Concurrency To Speed Up Blockchains" (Daniël Reijsbergen and
// Tien Tuan Anh Dinh, ICDCS 2020; arXiv:2003.06128).
//
// The paper quantifies the transaction-level concurrency available in seven
// public blockchains via per-block transaction dependency graphs (TDGs) and
// models the execution speed-up that concurrency buys. This repository
// implements the paper's entire stack: UTXO and account-model blockchain
// substrates (including a gas-metered contract VM whose CALL opcodes emit
// the internal-transaction traces the TDG needs), calibrated workload
// generators for all seven chains, the TDG and conflict-rate metrics, the
// analytical speed-up model, the BigQuery-style analysis pipeline, and —
// going beyond the paper — working parallel execution engines that validate
// the model.
//
// Five execution engines are implemented — sequential, speculative
// two-phase, oracle-TDG groups, ordered STM, and a sharded engine
// (internal/exec.Sharded) with a deterministic cross-shard commit, whose
// chain driver runs over multi-version per-shard caches (internal/mvstore)
// so phase 1 of block b+1 overlaps phase 2 of block b. With one shard it
// is the paper's cross-block pipeline, whose speed-up is not bounded by a
// single global commit lock.
//
// See README.md for the layout, the paper-section → package map, and how
// to run each command; see docs/ARCHITECTURE.md for the execution
// engines, their serial-equivalence guarantees, and when each wins; see
// docs/EXPERIMENTS.md for the E1–E10 and E12 experiment catalogue (paper
// section, profiles, invocation, JSON schema, recorded baselines). The
// benchmarks in bench_test.go regenerate every table and figure:
//
//	go test -bench=. -benchmem
package txconcur
