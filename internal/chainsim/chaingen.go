package chainsim

import (
	"txconcur/internal/account"
)

// GenerateAccountChain generates a whole account-model history for the
// profile and returns the state before the first block plus the block
// sequence — the inputs the chain-level engine (exec.Sharded.ExecuteChain)
// consumes. The receipts and per-block pre-states
// are deliberately *not* returned: the generator injects era contracts
// directly into state between blocks, so chain-level callers must use a
// sequential replay of the blocks themselves as ground truth (the pattern
// bench.replayChain and the serial-equivalence suites follow). Deterministic
// under the seed.
func GenerateAccountChain(p Profile, blocks int, seed int64) (*account.StateDB, []*account.Block, error) {
	g, err := NewAcctGen(p, blocks, seed)
	if err != nil {
		return nil, nil, err
	}
	pre := g.Chain().State().Copy()
	var out []*account.Block
	for {
		blk, _, ok, err := g.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		out = append(out, blk)
	}
	return pre, out, nil
}
