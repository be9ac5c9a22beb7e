// Package mempool turns the repo's batch pipeline into a service: a
// bounded transaction pool with backpressure, fed by concurrent clients,
// and a block builder that packs blocks to keep the transaction dependency
// graph wide before handing them to the sharded chain executor.
//
// Each submission carries the client's *predicted* read/write/delta key
// sets (strings — the same key vocabulary as the txconcur-rwset traces).
// Predictions steer packing only: a wrong prediction can cost parallelism
// inside a block, never correctness, because the executor validates every
// speculative result against what transactions actually touched, and the
// builder itself replays each candidate block sequentially before emitting
// it. The pipeline is
//
//	clients ── Submit (bounded, blocking) ──▶ Pool ──▶ Builder/Packer ──▶ exec.Sharded.ExecuteChainStream
//
// with per-sender arrival order preserved end to end (a sender's nonces
// must be submitted in order, as on any real chain).
package mempool

import (
	"context"
	"errors"
	"sync"
	"time"

	"txconcur/internal/account"
)

// ErrClosed reports a submission to a closed pool.
var ErrClosed = errors.New("mempool: closed")

// Pending is one transaction waiting in the pool, with the predicted key
// sets the packer plans around.
type Pending struct {
	// Tx is the transaction itself.
	Tx *account.Transaction
	// Reads, Writes and Deltas are the predicted key sets: keys the
	// transaction will read, write absolutely, or adjust commutatively
	// (blind credits). Delta–delta contact on a key commutes and is not a
	// conflict — the same refinement the op-level engines exploit.
	Reads, Writes, Deltas []string
	// Submitted is stamped by the pool at admission; end-to-end latency is
	// measured from here to the block's commit.
	Submitted time.Time
	// seq is the pool-wide arrival number (per-sender order ⊆ seq order).
	seq uint64
	// ack, set by SubmitDurable, receives the submission's outcome exactly
	// once: nil after the builder has packed the transaction and appended
	// its block to the WAL (persist-then-ack), or the shutdown error if
	// the service stops first. Buffered so resolution never blocks.
	ack chan error
}

// resolve delivers the submission's outcome to a durable submitter, at
// most once; later calls (and calls on non-durable submissions) are
// no-ops.
func (tx *Pending) resolve(err error) {
	if tx.ack == nil {
		return
	}
	select {
	case tx.ack <- err:
	default:
	}
}

// Pool is the bounded mempool. Submit blocks while the pool is at
// capacity — backpressure, not rejection — and respects context
// cancellation, so a cancelled client never deadlocks a full pool.
type Pool struct {
	mu      sync.Mutex
	pending []*Pending
	seq     uint64
	closed  bool

	slots    chan struct{} // capacity semaphore: one token per admitted tx
	arrival  chan struct{} // level-triggered "pending changed" signal
	closedCh chan struct{} // closed by Close
	now      func() time.Time
}

// New builds a pool admitting at most capacity transactions at a time
// (minimum 1).
func New(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		slots:    make(chan struct{}, capacity),
		arrival:  make(chan struct{}, 1),
		closedCh: make(chan struct{}),
		//txlint:clock sanctioned clock injection point; tests swap in a fake clock here
		now: time.Now,
	}
}

// Submit admits tx, blocking while the pool is full. It returns ctx's
// error if the context ends first and ErrClosed once the pool is closed.
// The Pending is copied; the caller may reuse it.
func (p *Pool) Submit(ctx context.Context, tx *Pending) error {
	_, err := p.submit(ctx, tx, false)
	return err
}

// SubmitDurable is Submit with durable semantics: on admission it
// additionally returns a one-shot channel that reports the submission's
// fate — nil once the builder has packed the transaction and appended its
// block to the write-ahead log (the tx then survives any crash), or an
// error if the service shuts down before that. Admission alone promises
// nothing; callers wanting durability must wait on the channel.
func (p *Pool) SubmitDurable(ctx context.Context, tx *Pending) (<-chan error, error) {
	return p.submit(ctx, tx, true)
}

func (p *Pool) submit(ctx context.Context, tx *Pending, durable bool) (<-chan error, error) {
	if tx == nil || tx.Tx == nil {
		return nil, errors.New("mempool: nil transaction")
	}
	//txlint:clock admission backpressure; commit order is assigned by seq under the lock, not select arbitration
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.closedCh:
		return nil, ErrClosed
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.slots
		return nil, ErrClosed
	}
	cp := *tx
	cp.Submitted = p.now()
	cp.seq = p.seq
	cp.ack = nil
	var ack chan error
	if durable {
		ack = make(chan error, 1)
		cp.ack = ack
	}
	p.seq++
	p.pending = append(p.pending, &cp)
	p.mu.Unlock()
	p.notify()
	return ack, nil
}

// Close stops admissions and wakes every waiter (submitters get ErrClosed,
// the builder drains what is left). Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.closedCh)
	}
	p.mu.Unlock()
	p.notify()
}

// Cap returns the pool's admission capacity.
func (p *Pool) Cap() int { return cap(p.slots) }

// Len returns the number of pending transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// notify pulses the arrival signal (level-triggered: one buffered token).
func (p *Pool) notify() {
	select {
	case p.arrival <- struct{}{}:
	default:
	}
}

// view snapshots the pending transactions in arrival order plus the closed
// flag. The returned slice is a copy; the Pendings are shared (read-only
// by convention once admitted).
func (p *Pool) view() ([]*Pending, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Pending, len(p.pending))
	copy(out, p.pending)
	return out, p.closed
}

// remove deletes the transactions with the given arrival numbers from the
// pool, releasing their capacity slots (arrival order of the remainder is
// preserved).
func (p *Pool) remove(seqs map[uint64]bool) {
	if len(seqs) == 0 {
		return
	}
	p.mu.Lock()
	kept := p.pending[:0]
	removed := 0
	for _, tx := range p.pending {
		if seqs[tx.seq] {
			removed++
			continue
		}
		kept = append(kept, tx)
	}
	for i := len(kept); i < len(p.pending); i++ {
		p.pending[i] = nil
	}
	p.pending = kept
	p.mu.Unlock()
	for i := 0; i < removed; i++ {
		<-p.slots
	}
	p.notify()
}

// failPending resolves every still-pending durable submission with err —
// the shutdown path: an acked submission is durable, so anything still in
// the pool when the builder stops must be failed, never silently dropped.
func (p *Pool) failPending(err error) {
	p.mu.Lock()
	left := make([]*Pending, len(p.pending))
	copy(left, p.pending)
	p.mu.Unlock()
	for _, tx := range left {
		tx.resolve(err)
	}
}
