package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/exec"
	"txconcur/internal/mempool"
	"txconcur/internal/wal"
)

// tracer holds what the decorators record during a traced run. Every layer
// is timed from outside, around a seam the repo already has: a
// mempool.Packer, a wal.FS, an exec.CheckpointSink, an exec.StateBackend
// and an http.Handler (the mempool.BlockLog decorator, ackLog, is always on
// because the ack point is an end-to-end stamp). Spans inside the executor
// are a later issue (internal/obs).
type tracer struct {
	// packs has one entry per Pack call; only the builder goroutine appends.
	packs []timeSpan

	// The log file's writes and syncs come from the builder goroutine and
	// checkpoints from the executor's checkpoint worker, both through the
	// one shared wal.FS, so one mutex guards them all.
	mu        sync.Mutex
	logWrites []timeSpan
	logSyncs  []timeSpan
	logBytes  int64
	ckpts     []timeSpan
	applies   []timeSpan
	getSpans  []timeSpan // every getSampleEvery-th basestore Get

	handlerNS atomic.Int64
	handled   atomic.Int64

	gets   atomic.Int64
	getNS  atomic.Int64
	getHis [histBuckets]atomic.Int64
}

// getSampleEvery is the sampling period of basestore Get spans; the
// aggregate (count, total, histogram) covers every call.
const getSampleEvery = 64

// The Get histogram has four buckets per power of two of nanoseconds.
const histBuckets = 64 * 4

func histBucket(ns int64) int {
	if ns < 4 {
		return int(max(ns, 0))
	}
	top := bits.Len64(uint64(ns)) - 1 // position of the leading bit, >= 2
	sub := int(ns>>(top-2)) & 3
	return top*4 + sub
}

// histValue is the geometric middle of a bucket, in nanoseconds.
func histValue(b int) float64 {
	if b < 4 {
		return float64(b)
	}
	top, sub := b/4, b%4
	lo := math.Ldexp(1+float64(sub)/4, top)
	return lo * math.Sqrt(1+1/(4+float64(sub)))
}

func (t *tracer) histQuantile(q float64) time.Duration {
	total := t.gets.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var seen int64
	for b := range t.getHis {
		seen += t.getHis[b].Load()
		if seen >= rank {
			return time.Duration(histValue(b))
		}
	}
	return 0
}

// timedPacker times every Pack call.
type timedPacker struct {
	mempool.Packer
	tr *tracer
}

func (p *timedPacker) Pack(pending []*mempool.Pending, cfg mempool.PackConfig) []int {
	s := timeSpan{start: time.Now()}
	idx := p.Packer.Pack(pending, cfg)
	s.end = time.Now()
	p.tr.packs = append(p.tr.packs, s)
	return idx
}

// timedFS times the block log's Write and Sync calls; every other file
// (checkpoint tables) passes through untouched.
type timedFS struct {
	wal.FS
	tr *tracer
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != wal.LogName {
		return file, err
	}
	return &timedLogFile{File: file, tr: f.tr}, nil
}

type timedLogFile struct {
	wal.File
	tr *tracer
}

func (f *timedLogFile) Write(p []byte) (int, error) {
	s := timeSpan{start: time.Now()}
	n, err := f.File.Write(p)
	s.end = time.Now()
	f.tr.mu.Lock()
	f.tr.logWrites = append(f.tr.logWrites, s)
	f.tr.logBytes += int64(n)
	f.tr.mu.Unlock()
	return n, err
}

func (f *timedLogFile) Sync() error {
	s := timeSpan{start: time.Now()}
	err := f.File.Sync()
	s.end = time.Now()
	f.tr.mu.Lock()
	f.tr.logSyncs = append(f.tr.logSyncs, s)
	f.tr.mu.Unlock()
	return err
}

// timedSink times every checkpoint the executor's worker hands over.
type timedSink struct {
	exec.CheckpointSink
	tr *tracer
}

func (c *timedSink) Checkpoint(idx int, st *account.StateDB) {
	s := timeSpan{start: time.Now()}
	c.CheckpointSink.Checkpoint(idx, st)
	s.end = time.Now()
	c.tr.mu.Lock()
	c.tr.ckpts = append(c.tr.ckpts, s)
	c.tr.mu.Unlock()
}

// timedBackend aggregates base-store reads (speculative workers call Get
// concurrently, far too often for a span each) and times every Apply.
type timedBackend struct {
	exec.StateBackend
	tr *tracer
}

func (b *timedBackend) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	val, ok, err := b.StateBackend.Get(key)
	end := time.Now()
	d := int64(end.Sub(start))
	b.tr.getNS.Add(d)
	b.tr.getHis[histBucket(d)].Add(1)
	if b.tr.gets.Add(1)%getSampleEvery == 0 {
		b.tr.mu.Lock()
		b.tr.getSpans = append(b.tr.getSpans, timeSpan{start, end})
		b.tr.mu.Unlock()
	}
	return val, ok, err
}

func (b *timedBackend) Apply(entries []basestore.Entry) error {
	s := timeSpan{start: time.Now()}
	err := b.StateBackend.Apply(entries)
	s.end = time.Now()
	b.tr.mu.Lock()
	b.tr.applies = append(b.tr.applies, s)
	b.tr.mu.Unlock()
	return err
}

// timedHandler sums the time the RPC handler is busy with requests.
type timedHandler struct {
	http.Handler
	tr *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.Handler.ServeHTTP(w, r)
	h.tr.handlerNS.Add(int64(time.Since(start)))
	h.tr.handled.Add(1)
}

func total(spans []timeSpan) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.end.Sub(s.start)
	}
	return d
}

// inside returns the spans of io that lie within one of the outer spans.
// Both lists are in time order and the outer spans do not overlap.
func inside(io, outer []timeSpan) []timeSpan {
	var out []timeSpan
	o := 0
	for _, s := range io {
		for o < len(outer) && outer[o].end.Before(s.end) {
			o++
		}
		if o < len(outer) && !s.start.Before(outer[o].start) {
			out = append(out, s)
		}
	}
	return out
}

// packOf matches each built block to the Pack call that chose it: the last
// one that ended before the block's append began (the builder is a single
// goroutine, so calls and appends interleave in order).
func (t *tracer) packOf(n *node) []int {
	out := make([]int, len(n.blocks))
	p := 0
	for b := range n.blocks {
		for p+1 < len(t.packs) && !t.packs[p+1].end.After(n.log.spans[b].start) {
			p++
		}
		out[b] = p
	}
	return out
}

// measure adds the metrics that need the decorators.
func (t *tracer) measure(m *measurement, n *node, ld *load, v *verdict, wall time.Duration) {
	set := func(name string, x float64) { m.values[name] = x }
	txs := float64(v.committed)
	blocks := float64(len(n.blocks))
	packOf := t.packOf(n)

	packTotal := total(t.packs)
	buildSelf, builderBusy := time.Duration(0), packTotal
	for b := range n.blocks {
		p, app := t.packs[packOf[b]], n.log.spans[b]
		buildSelf += app.start.Sub(p.end)
		builderBusy += app.end.Sub(p.end)
	}
	set("mempool.pack_us_per_tx", us(packTotal)/txs)
	set("mempool.build_self_us_per_tx", us(buildSelf)/txs)
	set("mempool.builder_busy_share", builderBusy.Seconds()/wall.Seconds())

	// Per-transaction stages: five consecutive intervals between one
	// transaction's own stamps, so their means add up to the mean commit
	// latency by construction. What can go wrong is a stamp matched to the
	// wrong block or Pack call, and that shows as a negative stage.
	var admit, poolWait, build, execQueue, inExec, admitWait time.Duration
	var poolWaits []float64
	misordered := 0
	for i, b := range v.txBlock {
		if b < 0 {
			continue
		}
		rec, app, pack := n.blocks[b], n.log.spans[b], t.packs[packOf[b]]
		stages := [...]time.Duration{
			v.admitted[i].Sub(ld.due[i]), pack.start.Sub(v.admitted[i]), app.end.Sub(pack.start),
			rec.accepted.Sub(app.end), rec.committed.Sub(rec.accepted),
		}
		admit += stages[0]
		poolWait += stages[1]
		build += stages[2]
		execQueue += stages[3]
		inExec += stages[4]
		if slices.Min(stages[:]) < 0 {
			misordered++
		}
		poolWaits = append(poolWaits, ms(stages[1]))
		if n.w.loop == openLoop {
			admitWait += v.admitted[i].Sub(ld.sent[i])
		} else {
			admitWait += stages[0]
		}
	}
	sort.Float64s(poolWaits)
	set("mempool.pool_wait_ms_p50", quantile(poolWaits, 0.50))
	set("mempool.admit_wait_share", admitWait.Seconds()/wall.Seconds())
	set("stage.admit_ms", ms(admit)/txs)
	set("stage.pool_wait_ms", ms(poolWait)/txs)
	set("stage.build_ms", ms(build)/txs)
	set("stage.exec_queue_ms", ms(execQueue)/txs)
	set("stage.exec_ms", ms(inExec)/txs)
	set("stage.misordered_share", float64(misordered)/txs)

	if n.w.durable {
		// Only the I/O inside Append calls: opening the log writes and
		// syncs its header, and shutdown syncs once more.
		writes, logSyncs := inside(t.logWrites, n.log.spans), inside(t.logSyncs, n.log.spans)
		appendTotal := total(n.log.spans)
		set("wal.append_us_per_block", us(appendTotal)/blocks)
		set("wal.encode_us_per_block", us(appendTotal-total(writes)-total(logSyncs))/blocks)
		syncs := make([]float64, len(logSyncs))
		for i, s := range logSyncs {
			syncs[i] = us(s.end.Sub(s.start))
		}
		sort.Float64s(syncs)
		set("wal.fsync_us_p50", quantile(syncs, 0.50))
		set("wal.fsync_us_p99", quantile(syncs, 0.99))
		set("wal.fsyncs_per_ktx", 1000*float64(len(logSyncs))/txs)
		set("wal.bytes_per_tx", float64(t.logBytes)/txs)
		set("wal.checkpoint_ms_per_ckpt", ratio(ms(total(t.ckpts)), float64(len(t.ckpts))))
	}
	if n.w.bounded {
		gets := float64(t.gets.Load())
		set("basestore.gets_per_tx", gets/txs)
		set("basestore.get_us_p50", us(t.histQuantile(0.50)))
		set("basestore.get_us_p99", us(t.histQuantile(0.99)))
		set("basestore.get_busy_share", time.Duration(t.getNS.Load()).Seconds()/wall.Seconds())
		set("basestore.apply_ms_per_call", ratio(ms(total(t.applies)), float64(len(t.applies))))
	}
	if n.w.loop == rpcClosed {
		set("client.rpc_us_per_tx", ratio(us(time.Duration(t.handlerNS.Load())), float64(t.handled.Load())))
	}
}

// span is one traced interval as written to the trace file. Times are
// nanoseconds since the first submission; parent is an index into the same
// list (-1 for a root); block is the chain index the span belongs to (-1
// for spans that belong to no single block).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Block  int    `json:"block"`
}

// spans lays the recorded intervals out as a tree: build ⊃ pack and
// wal.append ⊃ wal.write, wal.fsync per block, then exec.queue, exec.block,
// and the block-less checkpoint, basestore.apply and sampled basestore.get.
func (t *tracer) spans(n *node, origin time.Time) []span {
	var out []span
	add := func(name string, s timeSpan, parent, block int) int {
		out = append(out, span{name, int64(s.start.Sub(origin)), int64(s.end.Sub(origin)), parent, block})
		return len(out) - 1
	}
	packOf := t.packOf(n)
	for b, rec := range n.blocks {
		pack, app := t.packs[packOf[b]], n.log.spans[b]
		build := add("build", timeSpan{pack.start, app.end}, -1, b)
		add("pack", pack, build, b)
		a := add("wal.append", app, build, b)
		for _, w := range inside(t.logWrites, []timeSpan{app}) {
			add("wal.write", w, a, b)
		}
		for _, s := range inside(t.logSyncs, []timeSpan{app}) {
			add("wal.fsync", s, a, b)
		}
		add("exec.queue", timeSpan{app.end, rec.accepted}, -1, b)
		add("exec.block", timeSpan{rec.accepted, rec.committed}, -1, b)
	}
	for _, c := range t.ckpts {
		add("checkpoint", c, -1, -1)
	}
	for _, a := range t.applies {
		add("basestore.apply", a, -1, -1)
	}
	for _, g := range t.getSpans {
		add("basestore.get", g, -1, -1)
	}
	return out
}

// writeSpans writes the run's spans to <dir>/trace-<workload>.json.
func (t *tracer) writeSpans(n *node, origin time.Time, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	data, err := json.Marshal(t.spans(n, origin))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(dir, "trace-"+n.w.name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
