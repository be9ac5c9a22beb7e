package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/client"
	"txconcur/internal/exec"
	"txconcur/internal/mempool"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// The service configuration is fixed: every workload runs the same node,
// and BENCHMARK.json's numbers are only comparable while these stay put.
const (
	maxTxs          = 256
	hotKeyCap       = 32
	poolCapacity    = 16 * maxTxs
	flushLull       = 2 * time.Millisecond
	execWorkers     = 2
	execShards      = 2
	execDepth       = 2
	checkpointEvery = 8
	// builtQueue is how many built blocks may wait between the builder and
	// the executor: the value the repo's three service drivers use. It lets
	// the builder run ahead while the executor is on a slow block.
	builtQueue = 16
	// cacheDivisor sets the bounded workload's total version-cache budget
	// to accounts/cacheDivisor keys, split evenly across the shards.
	cacheDivisor = 100
)

// node is the single-node service wired once for every workload:
//
//	generator → mempool.Pool → mempool.Builder (→ wal.Log) → bridge →
//	exec.Sharded.ExecuteChainStream (→ wal.Checkpointer, → basestore.Store)
//
// It is the assembly ROADMAP item 3 wants extracted into internal/node; the
// benchmark holds it until then.
type node struct {
	w      *workload
	stream *stream
	tr     *tracer // nil when tracing is off

	pool    *mempool.Pool
	builder *mempool.Builder
	engine  exec.Sharded
	state   *account.StateDB // the executor's working state (a copy of pre)
	log     *ackLog

	workDir string
	walDir  *wal.Dir
	ckpt    *wal.Checkpointer
	store   *basestore.Store

	// rpc-closed only.
	listener net.Listener
	server   *http.Server
	served   chan struct{}
	wire     []client.SubmitTx // the stream in wire form

	// Filled while running; each slice has one writer goroutine and is read
	// only after wait returns.
	blocks  []blockRec  // bridge
	commits []time.Time // committer, via onCommit

	cancel    context.CancelFunc
	buildDone chan struct{}
	execDone  chan struct{}
	leftovers []*mempool.Pending
	buildErr  error
	execErr   error
	result    *exec.ChainResult
	shardStat *exec.ChainShardStats
}

// blockRec is what the bridge keeps of one built block.
type blockRec struct {
	blk       *account.Block
	admitted  []time.Time // pool admission stamp per transaction
	deferred  int
	accepted  time.Time // the executor's speculative stage took the block
	committed time.Time // onCommit fired (filled in after the run)
}

// prepare does everything a run needs before the first submission except
// starting goroutines: generates the workload, copies the pre-state for the
// builder replica and the executor, opens the durability and base-store
// directories and the loopback listener. Its duration is setup_s.
func prepare(w *workload, seed int64, seconds float64, workRoot string, tr *tracer) (*node, error) {
	s, err := w.gen(seed, w.streamLen(seconds))
	if err != nil {
		return nil, err
	}
	n := &node{w: w, stream: s, tr: tr}
	n.pool = mempool.New(poolCapacity)
	n.engine = exec.Sharded{
		Workers: execWorkers, Shards: execShards, Depth: execDepth,
		OpLevel: true, Cost: s.cost,
	}

	var inner mempool.BlockLog
	if w.durable || w.bounded {
		n.workDir, err = os.MkdirTemp(workRoot, w.name+"-")
		if err != nil {
			return nil, fmt.Errorf("work dir: %w", err)
		}
	}
	if w.durable {
		var fsys wal.FS = wal.OS{}
		if tr != nil {
			fsys = &timedFS{FS: fsys, tr: tr}
		}
		n.walDir, err = wal.Open(fsys, filepath.Join(n.workDir, "wal"), wal.SyncEachRecord)
		if err != nil {
			n.close()
			return nil, err
		}
		inner = n.walDir.Log()
		n.ckpt = n.walDir.Checkpointer(checkpointEvery)
		n.engine.Checkpoint = n.ckpt
		if tr != nil {
			n.engine.Checkpoint = &timedSink{CheckpointSink: n.ckpt, tr: tr}
		}
	}
	if w.bounded {
		n.store, err = basestore.OpenStore(basestore.OS{}, filepath.Join(n.workDir, "base"))
		if err != nil {
			n.close()
			return nil, err
		}
		n.engine.Backend = n.store
		if tr != nil {
			n.engine.Backend = &timedBackend{StateBackend: n.store, tr: tr}
		}
		n.engine.CacheBudget = s.accounts / cacheDivisor / execShards
	}

	n.log = &ackLog{inner: inner}
	var packer mempool.Packer = mempool.ConflictAware{}
	if tr != nil {
		packer = &timedPacker{Packer: packer, tr: tr}
	}
	n.builder = mempool.NewBuilder(n.pool, s.pre, mempool.BuilderConfig{
		Packer:   packer,
		Pack:     mempool.PackConfig{MaxTxs: maxTxs, HotKeyCap: hotKeyCap},
		Coinbase: types.AddressFromUint64("nodebench/miner", 1),
		Flush:    flushLull,
		Log:      n.log,
	})
	n.state = s.pre.Copy()

	if w.loop == rpcClosed {
		n.listener, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		var h http.Handler = client.NewBuilderServer(n.pool)
		if tr != nil {
			h = &timedHandler{Handler: h, tr: tr}
		}
		n.server = &http.Server{Handler: h}
		n.wire = wireForm(s.txs)
	}
	return n, nil
}

// wireForm converts the stream to the SubmitTransaction payloads the RPC
// client sends.
func wireForm(txs []*mempool.Pending) []client.SubmitTx {
	out := make([]client.SubmitTx, len(txs))
	for i, p := range txs {
		out[i] = client.SubmitTx{
			From: p.Tx.From, To: p.Tx.To, Value: p.Tx.Value, Nonce: p.Tx.Nonce,
			GasLimit: p.Tx.GasLimit, GasPrice: p.Tx.GasPrice, Arg: p.Tx.Arg, Code: p.Tx.Code,
			Reads: p.Reads, Writes: p.Writes, Deltas: p.Deltas,
		}
	}
	return out
}

// start launches the builder, the bridge and the streaming executor (and
// the RPC server). Nothing moves until the first submission.
func (n *node) start(ctx context.Context) {
	ctx, n.cancel = context.WithCancel(ctx)
	out := make(chan mempool.BuiltBlock, builtQueue)
	blocks := make(chan *account.Block)
	n.buildDone = make(chan struct{})
	n.execDone = make(chan struct{})

	go func() {
		defer close(n.buildDone)
		n.leftovers, n.buildErr = n.builder.Run(ctx, out)
	}()
	// The bridge turns built blocks into the executor's block stream and
	// stamps the hand-off. The block channel is unbuffered, so the stamp is
	// the moment the executor's speculative stage took the block.
	go func() {
		defer close(blocks)
		for bb := range out {
			rec := blockRec{blk: bb.Block, admitted: bb.Submitted, deferred: bb.Deferred}
			select {
			case blocks <- bb.Block:
			case <-ctx.Done():
				return
			}
			rec.accepted = time.Now()
			n.blocks = append(n.blocks, rec)
		}
	}()
	go func() {
		defer close(n.execDone)
		n.result, n.shardStat, n.execErr = n.engine.ExecuteChainStream(n.state, blocks,
			func(int, *account.Block, []*account.Receipt) {
				n.commits = append(n.commits, time.Now())
			})
		if n.execErr != nil {
			// The executor stopped reading; unblock the bridge, the
			// builder and the generators.
			n.cancel()
		}
	}()
	if n.server != nil {
		n.served = make(chan struct{})
		go func() {
			defer close(n.served)
			// Serve always returns a non-nil error; after close it is
			// ErrServerClosed.
			_ = n.server.Serve(n.listener)
		}()
	}
}

// drain closes the pool and waits for the builder and the executor to
// finish everything admitted so far.
func (n *node) drain() error {
	n.pool.Close()
	<-n.buildDone
	<-n.execDone
	n.cancel()
	for i := range n.blocks {
		if i < len(n.commits) {
			n.blocks[i].committed = n.commits[i]
		}
	}
	if n.buildErr != nil {
		return fmt.Errorf("builder: %w", n.buildErr)
	}
	if n.execErr != nil {
		return fmt.Errorf("executor: %w", n.execErr)
	}
	if n.ckpt != nil {
		if err := n.ckpt.Err(); err != nil {
			return fmt.Errorf("checkpointer: %w", err)
		}
	}
	return nil
}

// close releases everything prepare opened and removes the work directory.
// It is safe on a node that was never started.
func (n *node) close() error {
	var errs []error
	if n.server != nil {
		errs = append(errs, n.server.Close())
		if n.served != nil {
			<-n.served
		} else {
			errs = append(errs, n.listener.Close())
		}
		n.server = nil
	}
	if n.walDir != nil {
		errs = append(errs, n.walDir.Close())
		n.walDir = nil
	}
	if n.store != nil {
		errs = append(errs, n.store.Close())
		n.store = nil
	}
	if n.workDir != "" {
		errs = append(errs, os.RemoveAll(n.workDir))
		n.workDir = ""
	}
	return errors.Join(errs...)
}

// ackLog is the benchmark's mempool.BlockLog: it stamps every Append, which
// is the persist-then-ack point, and passes the block to the real log when
// the workload has one. In-memory workloads persist nothing, so there the
// ack point is the moment the block is sealed.
type ackLog struct {
	inner mempool.BlockLog
	spans []timeSpan // one per appended block, in block order
}

type timeSpan struct{ start, end time.Time }

func (l *ackLog) Append(blk *account.Block) (uint64, error) {
	s := timeSpan{start: time.Now()}
	var idx uint64
	if l.inner != nil {
		var err error
		if idx, err = l.inner.Append(blk); err != nil {
			return 0, err
		}
	}
	s.end = time.Now()
	l.spans = append(l.spans, s)
	return idx, nil
}

func (l *ackLog) Sync() error {
	if l.inner == nil {
		return nil
	}
	return l.inner.Sync()
}
