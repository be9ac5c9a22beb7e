package mempool

import (
	"txconcur/internal/account"
	"txconcur/internal/types"
)

// PackConfig bounds one packed block.
type PackConfig struct {
	// MaxTxs caps the block size (minimum 1).
	MaxTxs int
	// HotKeyCap caps, per block, the number of non-commutative touches
	// (predicted reads or absolute writes) of any single key — the dial
	// that keeps one hot account from serialising a whole block. Pure
	// delta touches commute and are exempt. Minimum 1; only the
	// conflict-aware packer consults it.
	HotKeyCap int
}

func (c PackConfig) normalized() PackConfig {
	if c.MaxTxs < 1 {
		c.MaxTxs = 1
	}
	if c.HotKeyCap < 1 {
		c.HotKeyCap = 1
	}
	return c
}

// A Packer selects the next block from the pending transactions (given in
// arrival order) and returns the chosen indices, strictly increasing. The
// contract every packer must honour, property-tested and fuzzed:
//
//   - never reorder a sender: if pending[i] is picked, every earlier
//     pending[j] (j < i) with the same sender is picked too (nonces must
//     commit in submission order);
//   - never pick an index twice, never exceed cfg.MaxTxs;
//   - always make progress: with MaxTxs ≥ 1 and pending non-empty, at
//     least pending[0] is picked.
type Packer interface {
	Name() string
	Pack(pending []*Pending, cfg PackConfig) []int
}

// FIFO packs blocks in pure arrival order — the baseline every chain
// implements, and the control ConflictAware is measured against.
type FIFO struct{}

// Name implements Packer.
func (FIFO) Name() string { return "fifo" }

// Pack implements Packer: the first MaxTxs pending transactions.
func (FIFO) Pack(pending []*Pending, cfg PackConfig) []int {
	cfg = cfg.normalized()
	n := cfg.MaxTxs
	if n > len(pending) {
		n = len(pending)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// ConflictAware packs blocks to maximise TDG width: a single greedy scan
// in arrival order that skips any transaction whose predicted
// non-commutative touches would push a key past HotKeyCap. Skipping a
// transaction blocks its sender for the rest of the block (a later nonce
// must not overtake an earlier one), so hot-key traffic spreads across
// consecutive blocks while disjoint traffic fills each block to MaxTxs.
// With HotKeyCap = 1 every packed block is key-disjoint up to commuting
// deltas — the widest TDG the predictions allow.
//
// By construction every packed block's per-key conflict density is ≤
// HotKeyCap, so the density ceiling is monotone in the cap (the property
// tests pin this, and the exact density on a pure hot-key workload).
type ConflictAware struct{}

// Name implements Packer.
func (ConflictAware) Name() string { return "conflict-aware" }

// Pack implements Packer.
func (ConflictAware) Pack(pending []*Pending, cfg PackConfig) []int {
	cfg = cfg.normalized()
	blocked := make(map[types.Address]bool)
	density := make(map[string]int)
	picked := make([]int, 0, cfg.MaxTxs)
	for i, tx := range pending {
		if len(picked) == cfg.MaxTxs {
			break
		}
		if blocked[tx.Tx.From] {
			continue
		}
		if overCap(tx, density, cfg.HotKeyCap) {
			blocked[tx.Tx.From] = true
			continue
		}
		picked = append(picked, i)
		for _, k := range nonCommuting(tx) {
			density[k]++
		}
	}
	return picked
}

// nonCommuting returns the transaction's predicted non-commutative key
// touches — reads and absolute writes, deduplicated — the touches that
// count against HotKeyCap. Deltas commute among themselves (the dominant
// hot-key pattern: fee credits, airdrops) and are exempt.
func nonCommuting(tx *Pending) []string {
	out := make([]string, 0, len(tx.Reads)+len(tx.Writes))
	seen := make(map[string]bool, len(tx.Reads)+len(tx.Writes))
	for _, ks := range [][]string{tx.Reads, tx.Writes} {
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// overCap reports whether adding tx would push any of its non-commutative
// keys past the per-block cap.
func overCap(tx *Pending, density map[string]int, hotCap int) bool {
	for _, k := range nonCommuting(tx) {
		if density[k]+1 > hotCap {
			return true
		}
	}
	return false
}

// Conflicts reports whether two predicted rwsets conflict: some key is
// touched by both, and the contact does not commute. Write–anything and
// delta–read contacts conflict; read–read and delta–delta do not — the
// op-level conflict rule of the executors, applied to predictions.
func Conflicts(a, b *Pending) bool {
	const (
		r = 1 << iota
		w
		d
	)
	mask := make(map[string]int)
	add := func(keys []string, bit int) {
		for _, k := range keys {
			mask[k] |= bit
		}
	}
	add(a.Reads, r)
	add(a.Writes, w)
	add(a.Deltas, d)
	for _, pair := range []struct {
		keys []string
		bit  int
	}{{b.Reads, r}, {b.Writes, w}, {b.Deltas, d}} {
		for _, k := range pair.keys {
			am, ok := mask[k]
			if !ok {
				continue
			}
			bm := pair.bit
			if am&w != 0 || bm&w != 0 {
				return true
			}
			if (am&d != 0 && bm&r != 0) || (am&r != 0 && bm&d != 0) {
				return true
			}
		}
	}
	return false
}

// PredictTransfer fills a Pending's key sets for a plain value transfer —
// the prediction simulated clients use for non-contract traffic. The
// sender's balance and nonce are read and written absolutely; the
// recipient's balance is a pure commutative credit.
func PredictTransfer(tx *account.Transaction) *Pending {
	from := "b:" + tx.From.String()
	fromN := "n:" + tx.From.String()
	return &Pending{
		Tx:     tx,
		Reads:  []string{from, fromN},
		Writes: []string{from, fromN},
		Deltas: []string{"b:" + tx.To.String()},
	}
}
