package main

import (
	"fmt"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/dataset"
	"txconcur/internal/exec"
	"txconcur/internal/mempool"
)

// loopKind says how a workload offers its load.
type loopKind int

const (
	// saturated: one generator goroutine submits as fast as the pool's
	// backpressure admits (closed by the pool, not by replies).
	saturated loopKind = iota
	// openLoop: one generator goroutine submits on a fixed schedule and
	// times every transaction from when it was due.
	openLoop
	// rpcClosed: closed-loop client connections over loopback HTTP, each
	// sending its next transaction when the previous reply arrives.
	rpcClosed
)

// workload is one benchmark traffic mix. Everything that differs between
// workloads is a field here; the service wiring in service.go is shared.
type workload struct {
	name string
	why  string
	loop loopKind
	// gen makes the pre-state and the first n transactions of the
	// submission stream from the seed alone.
	gen func(seed int64, n int) (*stream, error)
	// nominalTPS sizes the generated stream: a run of s seconds generates
	// nominalTPS*s*streamHeadroom transactions and stops submitting after s
	// seconds, whichever comes first. For openLoop it is the offered rate
	// and the stream is exactly rate*s long.
	nominalTPS float64
	// durable runs the builder over a wal.Log (SyncEachRecord) with a
	// checkpoint every checkpointEvery blocks and submits through
	// Pool.SubmitDurable.
	durable bool
	// bounded runs the executor over a basestore.Store with the version
	// caches capped at 1/100 of the account population.
	bounded bool
}

// streamHeadroom is how much longer than nominalTPS*seconds a saturated
// stream is, so that the deadline and not the end of the stream stops a run
// on a machine somewhat faster than the one the nominal rates were read on.
const streamHeadroom = 1.25

// stream is a generated workload instance: the state before the first
// block and the submissions in arrival order with their predictions.
type stream struct {
	pre  *account.StateDB
	txs  []*mempool.Pending
	cost exec.CostModel
	// accounts is the size of the account population the traffic draws on
	// (sizes the bounded workload's cache budget).
	accounts int
}

var workloads = []*workload{
	{
		name: "sat-uniform",
		why:  "low-conflict Shard Uniform transfers at saturation: speculation and builder validation do the work, packer reordering and merge repair almost none; all-RAM control for bounded-wide",
		loop: saturated, gen: uniformStream, nominalTPS: 20000,
	},
	{
		name: "sat-hotkey",
		why:  "Shard Skew sweep bots into hot collectors at saturation: ConflictAware.Pack, cross-shard aborts, repairs and merge waves dominate, which sat-uniform bypasses",
		loop: saturated, gen: hotkeyStream, nominalTPS: 22000,
	},
	{
		name: "sat-contract",
		why:  "ERC20-trace script calls with recorded rwsets as predictions at saturation: per-tx VM work is several transfers, so internal/vm and account cost show here and nowhere else",
		loop: saturated, gen: contractStream, nominalTPS: 15000,
	},
	{
		name: "bounded-wide",
		why:  "the sat-uniform stream over a basestore.Store with caches at 1/100 of the accounts: basestore Get/Apply and mvstore eviction do most of the work and are absent from every other workload",
		loop: saturated, gen: uniformStream, nominalTPS: 10000, bounded: true,
	},
	{
		name: "durable-rate",
		why:  "open loop at 6000 tx/s through SubmitDurable with a synced WAL and checkpoints: the only workload below saturation, so latency is independent of throughput and wal encode+fsync is on the blocking path",
		loop: openLoop, gen: uniformStream, nominalTPS: 6000, durable: true,
	},
	{
		name: "rpc-closed",
		why:  "one closed-loop client.Submitter over loopback HTTP with the hot-key stream: the only workload that crosses internal/client; JSON-RPC takes about 40% of the CPU and the pool stays near empty",
		loop: rpcClosed, gen: hotkeyStream, nominalTPS: 12000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// streamLen is the number of transactions generated for a run of the given
// length.
func (w *workload) streamLen(seconds float64) int {
	n := w.nominalTPS * seconds
	if w.loop != openLoop {
		n *= streamHeadroom
	}
	if n < 1 {
		n = 1
	}
	return int(n)
}

// transferStream flattens a chainsim account history into a submission
// stream: arrival order is the chain's sequential order, so every nonce and
// funding dependency is satisfiable, and predictions are the plain-transfer
// envelope sets.
func transferStream(p chainsim.Profile, seed int64, n int) (*stream, error) {
	// The block count only bounds the history; generation stops at n
	// transactions.
	g, err := chainsim.NewAcctGen(p, n, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", p.Name, err)
	}
	s := &stream{
		pre:      g.Chain().State().Copy(),
		txs:      make([]*mempool.Pending, 0, n),
		accounts: p.Eras[0].Users,
	}
	for len(s.txs) < n {
		blk, _, ok, err := g.Next()
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", p.Name, err)
		}
		if !ok {
			return nil, fmt.Errorf("generate %s: history ended at %d of %d transactions", p.Name, len(s.txs), n)
		}
		for _, tx := range blk.Txs {
			if len(s.txs) == n {
				break
			}
			s.txs = append(s.txs, mempool.PredictTransfer(tx))
		}
	}
	return s, nil
}

func uniformStream(seed int64, n int) (*stream, error) {
	return transferStream(chainsim.ShardUniformProfile(), seed, n)
}

func hotkeyStream(seed int64, n int) (*stream, error) {
	return transferStream(chainsim.ShardSkewProfile(), seed, n)
}

// contractStream compiles a generated ERC20 rwset trace into script-call
// transactions whose predictions are the recorded per-row key sets.
func contractStream(seed int64, n int) (*stream, error) {
	const txPerBlock = 256
	cfg := dataset.ERC20TraceConfig{
		Blocks: (n + txPerBlock - 1) / txPerBlock, TxPerBlock: txPerBlock,
		Tokens: 8, Holders: 4096, Users: 2048, Seed: seed,
	}
	tr, err := dataset.GenerateERC20Trace(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate erc20 trace: %w", err)
	}
	rc, err := dataset.BuildReplayChain(tr)
	if err != nil {
		return nil, fmt.Errorf("compile erc20 trace: %w", err)
	}
	s := &stream{
		pre: rc.Pre, cost: rc.TxCost,
		txs:      make([]*mempool.Pending, 0, n),
		accounts: cfg.Users,
	}
	row := 0
	for _, blk := range rc.Blocks {
		for _, tx := range blk.Txs {
			if len(s.txs) == n {
				return s, nil
			}
			s.txs = append(s.txs, predictRow(tx, &tr.Txs[row]))
			row++
		}
	}
	return s, nil
}

// predictRow turns a trace row's declared ops into the submission's
// predicted key sets. The sender envelope (balance, nonce) is read and
// written by every transaction; the ops carry the contract keys.
func predictRow(tx *account.Transaction, row *dataset.TraceTx) *mempool.Pending {
	env := "sender:" + row.Sender
	p := &mempool.Pending{Tx: tx, Reads: []string{env}, Writes: []string{env}}
	for _, op := range row.Ops {
		switch op.Kind {
		case dataset.OpRead:
			p.Reads = append(p.Reads, op.Key)
		case dataset.OpWrite:
			p.Writes = append(p.Writes, op.Key)
		case dataset.OpDelta:
			p.Deltas = append(p.Deltas, op.Key)
		}
	}
	return p
}
