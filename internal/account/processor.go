package account

import (
	"errors"
	"fmt"

	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// Gas schedule for the transaction envelope, mirroring Ethereum's.
const (
	// GasTx is the intrinsic gas of every transaction.
	GasTx uint64 = 21000
	// GasTxCreate is the additional intrinsic gas of a contract creation.
	GasTxCreate uint64 = 32000
	// GasCodeByte is the per-byte cost of deployed contract code.
	GasCodeByte uint64 = 200
)

// Transaction-envelope errors: a block containing a transaction that fails
// at this level is itself invalid (unlike VM failures, which are recorded in
// receipts and consume gas).
var (
	ErrNonce             = errors.New("account: bad nonce")
	ErrInsufficientFunds = errors.New("account: insufficient funds for gas * price + value")
	ErrIntrinsicGas      = errors.New("account: gas limit below intrinsic cost")
	ErrBlockGasExceeded  = errors.New("account: cumulative gas exceeds block gas limit")
	ErrCodeOnCall        = errors.New("account: code payload on non-creation transaction")
)

// NonceError is the ErrNonce failure: the sender's account nonce is Have
// but the transaction carries Want. The message is built only when Error
// is called, so a speculative engine that hits stale nonces pays one small
// allocation per failure, not a formatted string.
type NonceError struct {
	From       types.Address
	Have, Want uint64
}

func (e *NonceError) Error() string {
	return fmt.Sprintf("%s: have %d, tx has %d (from %s)", ErrNonce.Error(), e.Have, e.Want, e.From.Short())
}

// Unwrap returns ErrNonce, so errors.Is(err, ErrNonce) holds.
func (e *NonceError) Unwrap() error { return ErrNonce }

// State is the mutable world a Processor executes against. *StateDB is the
// canonical implementation; the parallel execution engines substitute
// recording overlays that track read/write sets.
type State interface {
	vm.State
	GetNonce(types.Address) uint64
	SetNonce(types.Address, uint64)
	SetCode(types.Address, []byte)
}

// Processor executes transactions and blocks against a State. The zero
// value is ready to use.
type Processor struct {
	// DeferCoinbase suppresses the per-transaction fee credit to the block
	// coinbase. Parallel executors set it so that fee payments — which
	// every transaction makes — do not serialise the whole block on the
	// miner's balance; the accumulated fees (Σ GasUsed × GasPrice) are
	// credited once at the end, which yields the identical final state.
	DeferCoinbase bool
}

// Interface checks: the state database must be usable by the VM and the
// processor.
var (
	_ vm.State = (*StateDB)(nil)
	_ State    = (*StateDB)(nil)
)

// ApplyTransaction executes one transaction. Envelope failures (bad nonce,
// insufficient funds, intrinsic gas) return an error and leave the state
// unchanged. VM failures produce a Status-0 receipt: the execution's state
// changes are reverted but the nonce bump and gas payment stand, exactly as
// in Ethereum.
func (p Processor) ApplyTransaction(st State, blk *Block, tx *Transaction) (*Receipt, error) {
	if got := st.GetNonce(tx.From); got != tx.Nonce {
		return nil, &NonceError{From: tx.From, Have: got, Want: tx.Nonce}
	}
	if !tx.IsCreation() && len(tx.Code) > 0 {
		return nil, fmt.Errorf("%w: to=%s", ErrCodeOnCall, tx.To.Short())
	}
	intrinsic := GasTx
	if tx.IsCreation() {
		intrinsic += GasTxCreate + GasCodeByte*uint64(len(tx.Code))
	}
	if tx.GasLimit < intrinsic {
		return nil, fmt.Errorf("%w: limit %d < intrinsic %d", ErrIntrinsicGas, tx.GasLimit, intrinsic)
	}
	upfront := Amount(tx.GasLimit)*tx.GasPrice + tx.Value
	if st.GetBalance(tx.From) < upfront {
		return nil, fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientFunds,
			tx.From.Short(), st.GetBalance(tx.From), upfront)
	}

	// Buy gas and bump the nonce; these survive VM failure.
	st.SubBalance(tx.From, Amount(tx.GasLimit)*tx.GasPrice)
	st.SetNonce(tx.From, tx.Nonce+1)

	ctx := &vm.Context{Origin: tx.From, BlockHeight: blk.Height, BlockTime: blk.Time}
	gas := tx.GasLimit - intrinsic
	rcpt := &Receipt{TxHash: tx.Hash(), From: tx.From, To: tx.To, Status: 1}

	snap := st.Snapshot()
	var execErr error
	if tx.IsCreation() {
		addr := ContractAddress(tx.From, tx.Nonce)
		rcpt.To = addr
		st.SetCode(addr, tx.Code)
		if tx.Value != 0 {
			st.SubBalance(tx.From, tx.Value)
			st.AddBalance(addr, tx.Value)
		}
	} else {
		var res vm.Result
		res, execErr = vm.Call(st, ctx, tx.From, tx.To, tx.Value, tx.Arg, gas)
		gas -= res.GasUsed
		rcpt.Internal = res.Internal
		rcpt.Logs = res.Logs
	}
	if execErr != nil {
		st.RevertToSnapshot(snap)
		rcpt.Status = 0
		rcpt.ExecErr = execErr.Error()
		rcpt.Internal = nil
		rcpt.Logs = nil
		// A VM failure other than out-of-gas still forfeits the remaining
		// gas in our model (EVM REVERT-with-refund is not modelled).
		gas = 0
	}

	rcpt.GasUsed = tx.GasLimit - gas
	// Refund unused gas; pay the fee to the block's coinbase (unless the
	// caller batches fee credits).
	st.AddBalance(tx.From, Amount(gas)*tx.GasPrice)
	if !p.DeferCoinbase {
		st.AddBalance(blk.Coinbase, Amount(rcpt.GasUsed)*tx.GasPrice)
	}
	return rcpt, nil
}

// Fees sums the coinbase fees of the given transactions and receipts
// (Σ GasUsed × GasPrice); used with DeferCoinbase.
func Fees(txs []*Transaction, receipts []*Receipt) Amount {
	var total Amount
	for i, r := range receipts {
		if i < len(txs) {
			total += Amount(r.GasUsed) * txs[i].GasPrice
		}
	}
	return total
}

// BlockReward is the subsidy credited to the coinbase of every block.
const BlockReward Amount = 2_000_000_000

// ApplyBlock executes every transaction in the block in order, enforcing
// the block gas limit, then credits the block reward (and, with
// DeferCoinbase, the accumulated fees). On error the state is left
// unchanged.
func (p Processor) ApplyBlock(st State, blk *Block) ([]*Receipt, error) {
	snap := st.Snapshot()
	receipts := make([]*Receipt, 0, len(blk.Txs))
	var used uint64
	for i, tx := range blk.Txs {
		rcpt, err := p.ApplyTransaction(st, blk, tx)
		if err != nil {
			st.RevertToSnapshot(snap)
			return nil, fmt.Errorf("block %d tx %d: %w", blk.Height, i, err)
		}
		used += rcpt.GasUsed
		if blk.GasLimit > 0 && used > blk.GasLimit {
			st.RevertToSnapshot(snap)
			return nil, fmt.Errorf("%w: block %d used %d > limit %d",
				ErrBlockGasExceeded, blk.Height, used, blk.GasLimit)
		}
		receipts = append(receipts, rcpt)
	}
	if p.DeferCoinbase {
		st.AddBalance(blk.Coinbase, Fees(blk.Txs, receipts))
	}
	st.AddBalance(blk.Coinbase, BlockReward)
	return receipts, nil
}

// Chain is a validated sequence of account-model blocks with receipts.
type Chain struct {
	proc     Processor
	st       *StateDB
	blocks   []*Block
	receipts [][]*Receipt
}

// NewChain returns an empty chain over a fresh state. The genesis allocation
// can be applied directly to State() before the first block.
func NewChain() *Chain {
	return &Chain{st: NewStateDB()}
}

// State returns the chain's state database.
func (c *Chain) State() *StateDB { return c.st }

// Height returns the number of blocks.
func (c *Chain) Height() int { return len(c.blocks) }

// TipHash returns the hash of the last block, or the zero hash.
func (c *Chain) TipHash() types.Hash {
	if len(c.blocks) == 0 {
		return types.ZeroHash
	}
	return c.blocks[len(c.blocks)-1].Hash()
}

// Block returns the block at height i.
func (c *Chain) Block(i int) *Block { return c.blocks[i] }

// Receipts returns the receipts of the block at height i.
func (c *Chain) Receipts(i int) []*Receipt { return c.receipts[i] }

// Blocks returns the block sequence (copy of the slice, shared blocks).
func (c *Chain) Blocks() []*Block {
	out := make([]*Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// Append validates and executes b on top of the current state.
func (c *Chain) Append(b *Block) ([]*Receipt, error) {
	if b.Height != uint64(len(c.blocks)) {
		return nil, fmt.Errorf("account: block height %d, want %d", b.Height, len(c.blocks))
	}
	if b.PrevHash != c.TipHash() {
		return nil, fmt.Errorf("account: block %d prev-hash mismatch", b.Height)
	}
	receipts, err := c.proc.ApplyBlock(c.st, b)
	if err != nil {
		return nil, err
	}
	c.st.DiscardJournal()
	c.blocks = append(c.blocks, b)
	c.receipts = append(c.receipts, receipts)
	return receipts, nil
}
