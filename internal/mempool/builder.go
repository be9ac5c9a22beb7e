package mempool

import (
	"context"
	"fmt"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/types"
)

// BuilderConfig parameterises the block builder.
type BuilderConfig struct {
	// Packer selects each block's transactions (default ConflictAware).
	Packer Packer
	// Pack bounds each block (MaxTxs, HotKeyCap).
	Pack PackConfig
	// Coinbase is credited each block's fees and reward.
	Coinbase types.Address
	// BaseHeight numbers the first built block (heights then increment by
	// one) and BaseTime stamps it; each block advances BlockInterval
	// seconds (default 1).
	BaseHeight    uint64
	BaseTime      int64
	BlockInterval int64
	// Flush is the close deadline of an underfull block while the pool is
	// open: the block closes Flush after its oldest pending transaction
	// was admitted, however steadily others keep arriving. The deadline
	// never starts before the previous block closed, so a transaction
	// deferred at the pool head cannot make every arrival close a block
	// of its own: the builder emits at most one underfull block per Flush.
	// A block still closes at once when full, when the pool reaches
	// capacity, or when the pool closes. Zero means wait for a full block
	// or pool close — the deterministic setting the tests use.
	Flush time.Duration
	// Log, if non-nil, is the write-ahead block log: every built block is
	// appended (and made durable per the log's sync policy) before it is
	// sent downstream or any durable submission in it is acked. On return
	// Run syncs the log and fails the acks of whatever never made it into
	// a durable block. With a Log set, configure Flush > 0 or a MaxTxs the
	// workload is guaranteed to reach — durable submitters block on their
	// ack, so a partial block that never closes would strand them.
	Log BlockLog
}

// BlockLog is the durability seam the builder persists blocks through
// before acking (persist-then-ack); *wal.Log satisfies it. Append makes
// the block durable per the log's sync policy and returns its log index;
// Sync flushes any unsynced suffix at shutdown.
type BlockLog interface {
	Append(blk *account.Block) (uint64, error)
	Sync() error
}

// BuiltBlock is one closed block plus the bookkeeping the latency metrics
// need: the pool-admission time of each packed transaction, index-aligned
// with Block.Txs.
type BuiltBlock struct {
	Block     *account.Block
	Submitted []time.Time
	// Deferred counts packed candidates this round that failed sequential
	// validation (bad nonce or insufficient funds under the repacked
	// order) and were returned to the pool for a later block.
	Deferred int
}

// Builder drains a Pool into sequentially-validated blocks.
//
// Packing can reorder transactions across senders, and a reordering can
// invalidate an envelope that was valid in arrival order (a payment
// overtaken by the spend it funds). Every engine treats an envelope
// failure as a whole-block failure, so the builder replays each candidate
// block on its own sequential replica before emitting it: transactions
// that fail validation are deferred back to the pool — preserving arrival
// order, and dragging their sender's later nonces with them via the same
// nonce check — and retried in a later block once their funding lands.
// The replica applies exactly the engines' sequential semantics (deferred
// fees, then the block reward), so a block the builder emits is a block
// every engine will accept.
type Builder struct {
	pool    *Pool
	cfg     BuilderConfig
	replica *account.StateDB
	proc    account.Processor
	height  uint64
}

// NewBuilder builds a Builder over the pool; pre is the state before the
// first block (copied — the caller's StateDB is never touched).
func NewBuilder(pool *Pool, pre *account.StateDB, cfg BuilderConfig) *Builder {
	if cfg.Packer == nil {
		cfg.Packer = ConflictAware{}
	}
	cfg.Pack = cfg.Pack.normalized()
	if cfg.BlockInterval < 1 {
		cfg.BlockInterval = 1
	}
	return &Builder{
		pool:    pool,
		cfg:     cfg,
		replica: pre.Copy(),
		proc:    account.Processor{DeferCoinbase: true},
		height:  cfg.BaseHeight,
	}
}

// Run drains the pool into blocks until the pool is closed and empty (or
// ctx ends), sending each validated block on out. out is closed on return.
// Returns the transactions that remained unpackable after the pool closed
// — permanently invalid envelopes (nil for a well-formed workload) — so
// callers can assert nothing was silently dropped.
//
// With a WAL configured (BuilderConfig.Log), each block is appended and
// synced before it is emitted or acked, and shutdown is ordered: the log
// is flushed and every unresolved durable ack failed before out closes,
// so by the time a downstream consumer sees the closed channel no
// submitter is still waiting on a promise the service cannot keep.
func (b *Builder) Run(ctx context.Context, out chan<- BuiltBlock) (left []*Pending, err error) {
	defer close(out)
	// Registered after close(out)'s defer, so it runs first: flush the
	// log, then fail whatever never reached a durable block.
	defer func() {
		if b.cfg.Log != nil {
			if serr := b.cfg.Log.Sync(); serr != nil && err == nil {
				err = serr
			}
		}
		ferr := err
		if ferr == nil {
			ferr = ErrClosed
		}
		// Transactions the builder returns as permanently invalid are
		// still in the pool, so failPending covers them too.
		b.pool.failPending(ferr)
	}()
	// lastClose floors the Flush deadline: the moment the previous block
	// closed.
	var lastClose time.Time
	for {
		n, oldest, closed := b.pool.head()
		if n == 0 {
			if closed {
				return nil, nil
			}
			if err := b.wait(ctx); err != nil {
				return nil, err
			}
			continue
		}
		if n < b.cfg.Pack.MaxTxs && n < b.pool.Cap() && !closed {
			// Underfull: wait for a full block, the pool closing, or the
			// Flush deadline. A pool at capacity is packed immediately
			// even if underfull — waiting would deadlock against
			// submitters blocked on slots.
			start := oldest
			if start.Before(lastClose) {
				start = lastClose
			}
			if err := b.waitOrFlush(ctx, start); err != nil {
				return nil, err
			}
		}

		closeAt := b.pool.now()
		pending, closed := b.pool.view()
		bb, removed, packed := b.packOne(pending)
		if len(removed) == 0 {
			// Everything packable failed validation. If the pool is
			// closed no new funds can arrive: what is left is permanently
			// invalid. Otherwise wait for arrivals before retrying.
			if closed {
				return pending, nil
			}
			if err := b.wait(ctx); err != nil {
				return nil, err
			}
			continue
		}
		lastClose = closeAt
		// Persist, then ack, then release pool capacity: a durable
		// submitter that sees nil is guaranteed its block survives any
		// crash from here on.
		if b.cfg.Log != nil {
			if _, lerr := b.cfg.Log.Append(bb.Block); lerr != nil {
				return nil, fmt.Errorf("mempool: wal append for block %d: %w", bb.Block.Height, lerr)
			}
		}
		for _, tx := range packed {
			tx.resolve(nil)
		}
		b.pool.remove(removed)
		//txlint:clock send-vs-cancel backpressure; the block was already packed deterministically from the pool snapshot
		select {
		case out <- bb:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// wait blocks until the pool signals an arrival or closes, or ctx ends.
func (b *Builder) wait(ctx context.Context) error {
	//txlint:clock wakeup arbitration only; packing re-reads the pool under its lock
	select {
	case <-b.pool.arrival:
		return nil
	case <-b.pool.closedCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// waitOrFlush blocks while an underfull block may still grow: until the
// pool holds a full block or reaches capacity, the pool closes, or — with
// Flush set — Flush has passed since start, whichever comes first. Each
// arrival costs one Pool.Len; the pool is snapshotted once the wait ends.
func (b *Builder) waitOrFlush(ctx context.Context, start time.Time) error {
	var timer <-chan time.Time
	if b.cfg.Flush > 0 {
		left := start.Add(b.cfg.Flush).Sub(b.pool.now())
		if left <= 0 {
			return nil
		}
		t := time.NewTimer(left)
		defer t.Stop()
		timer = t.C
	}
	for {
		//txlint:clock the close deadline is inherently wall-clock; block contents still come deterministically from the snapshot
		select {
		case <-b.pool.arrival:
			if n := b.pool.Len(); n >= b.cfg.Pack.MaxTxs || n >= b.pool.Cap() {
				return nil
			}
		case <-b.pool.closedCh:
			return nil
		case <-timer:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// packOne packs and validates one block from the pending snapshot,
// advancing the replica. It returns the built block, the arrival numbers
// to remove from the pool, and the packed Pendings themselves (for
// durable acks); an empty removal set means every candidate failed
// validation (the block was not built).
func (b *Builder) packOne(pending []*Pending) (BuiltBlock, map[uint64]bool, []*Pending) {
	idx := b.cfg.Packer.Pack(pending, b.cfg.Pack)
	blk := &account.Block{
		Height:   b.height,
		Time:     b.cfg.BaseTime + int64(b.height-b.cfg.BaseHeight)*b.cfg.BlockInterval,
		Coinbase: b.cfg.Coinbase,
		// GasLimit 0 = unlimited: admission control is the pool's job; a
		// gas-full block under repacking would only re-defer valid txs.
	}
	removed := make(map[uint64]bool, len(idx))
	var receipts []*account.Receipt
	var times []time.Time
	var packed []*Pending
	deferred := 0
	for _, i := range idx {
		cand := pending[i]
		// ApplyTransaction leaves the replica untouched on failure, so a
		// deferred candidate costs nothing; blk's header fields are final
		// and Txs is not read by the VM, so filling Txs afterwards is
		// sound.
		rcpt, err := b.proc.ApplyTransaction(b.replica, blk, cand.Tx)
		if err != nil {
			deferred++
			continue
		}
		blk.Txs = append(blk.Txs, cand.Tx)
		receipts = append(receipts, rcpt)
		times = append(times, cand.Submitted)
		removed[cand.seq] = true
		packed = append(packed, cand)
	}
	if len(blk.Txs) == 0 {
		return BuiltBlock{}, nil, nil
	}
	b.replica.AddBalance(blk.Coinbase, account.Fees(blk.Txs, receipts))
	b.replica.AddBalance(blk.Coinbase, account.BlockReward)
	b.replica.DiscardJournal()
	b.height++
	return BuiltBlock{Block: blk, Submitted: times, Deferred: deferred}, removed, packed
}
