package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metricKind says who a metric is for. endToEnd and perLayer metrics are
// the ones BENCHMARK.json lists and the contract line carries; info metrics
// are printed and written to -out files only.
type metricKind string

const (
	endToEnd metricKind = "end_to_end"
	perLayer metricKind = "per_layer"
	info     metricKind = "info"
)

// metricDef names one metric. bound is the share of the baseline median by
// which an end-to-end metric may worsen before -compare calls it a
// regression; other kinds have none.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	kind   metricKind
	bound  float64
}

// metricDefs is the program's side of BENCHMARK.json; TestManifestMatches
// keeps the two in step. Order is print order.
var metricDefs = []metricDef{
	{"commit_tps", "tx/s", "higher", endToEnd, 0.25},
	{"commit_p50_ms", "ms", "lower", endToEnd, 0.25},
	{"ack_p50_ms", "ms", "lower", endToEnd, 0.25},
	{"ack_p99_ms", "ms", "lower", endToEnd, 0.25},
	{"setup_s", "s", "lower", endToEnd, 0.25},

	{"commit_p99_ms", "ms", "lower", info, 0},
	{"commit_mean_ms", "ms", "lower", info, 0},
	{"ack_p99_all_ms", "ms", "lower", info, 0},
	{"ack_p999_ms", "ms", "lower", info, 0},
	{"latency_samples", "count", "higher", info, 0},
	{"late_p99_ms", "ms", "lower", info, 0},
	{"backlog_end", "count", "lower", info, 0},
	{"failed_share", "share", "lower", info, 0},
	{"measured_s", "s", "higher", info, 0},
	{"txs", "count", "higher", info, 0},
	{"blocks", "count", "higher", info, 0},

	{"client.rpc_us_per_tx", "us/tx", "lower", perLayer, 0},
	{"client.submit_rtt_us_p50", "us", "lower", perLayer, 0},
	{"mempool.admit_wait_share", "share", "lower", perLayer, 0},
	{"mempool.pool_wait_ms_p50", "ms", "lower", perLayer, 0},
	{"mempool.pack_us_per_tx", "us/tx", "lower", perLayer, 0},
	{"mempool.txs_per_block", "tx/block", "higher", perLayer, 0},
	{"mempool.deferred_per_ktx", "1/ktx", "lower", perLayer, 0},
	{"mempool.build_self_us_per_tx", "us/tx", "lower", perLayer, 0},
	{"mempool.builder_busy_share", "share", "lower", perLayer, 0},
	{"wal.append_us_per_block", "us/block", "lower", perLayer, 0},
	{"wal.encode_us_per_block", "us/block", "lower", perLayer, 0},
	{"wal.fsync_us_p50", "us", "lower", perLayer, 0},
	{"wal.fsync_us_p99", "us", "lower", perLayer, 0},
	{"wal.fsyncs_per_ktx", "1/ktx", "lower", perLayer, 0},
	{"wal.bytes_per_tx", "B/tx", "lower", perLayer, 0},
	{"wal.checkpoint_ms_per_ckpt", "ms", "lower", perLayer, 0},
	{"wal.checkpoints_skipped", "count", "lower", perLayer, 0},
	{"wal.recover_s", "s", "lower", perLayer, 0},
	{"exec.queue_ms_p50", "ms", "lower", perLayer, 0},
	{"exec.block_ms_p50", "ms", "lower", perLayer, 0},
	{"exec.busy_share", "share", "lower", perLayer, 0},
	{"exec.abort_rate", "1/tx", "lower", perLayer, 0},
	{"exec.repairs_per_ktx", "1/ktx", "lower", perLayer, 0},
	{"exec.merge_waves_per_block", "1/block", "lower", perLayer, 0},
	{"exec.speedup_model", "ratio", "higher", perLayer, 0},
	{"exec.seq_tps", "tx/s", "higher", perLayer, 0},
	{"exec.speedup_measured", "ratio", "higher", perLayer, 0},
	{"basestore.gets_per_tx", "1/tx", "lower", perLayer, 0},
	{"basestore.get_us_p50", "us", "lower", perLayer, 0},
	{"basestore.get_us_p99", "us", "lower", perLayer, 0},
	{"basestore.get_busy_share", "share", "lower", perLayer, 0},
	{"basestore.apply_ms_per_call", "ms", "lower", perLayer, 0},
	{"basestore.evicted_per_tx", "1/tx", "lower", perLayer, 0},
	{"basestore.generations", "count", "lower", perLayer, 0},
	{"stage.admit_ms", "ms", "lower", perLayer, 0},
	{"stage.pool_wait_ms", "ms", "lower", perLayer, 0},
	{"stage.build_ms", "ms", "lower", perLayer, 0},
	{"stage.exec_queue_ms", "ms", "lower", perLayer, 0},
	{"stage.exec_ms", "ms", "lower", perLayer, 0},
	{"stage.misordered_share", "share", "lower", perLayer, 0},
	{"proc.cpu_s_per_mtx", "s/Mtx", "lower", perLayer, 0},
	{"proc.alloc_bytes_per_tx", "B/tx", "lower", perLayer, 0},
	{"proc.allocs_per_tx", "1/tx", "lower", perLayer, 0},
	{"proc.gc_pause_ms", "ms", "lower", perLayer, 0},
	{"proc.rss_peak_mb", "MB", "lower", perLayer, 0},
	{"trace.commit_tps", "tx/s", "higher", perLayer, 0},

	// Derived across runs by the suite, never by a single run.
	{"trace.overhead_share", "share", "lower", info, 0},
	{"bounded_ratio", "ratio", "higher", info, 0},
}

// ackLimit is durable-rate's latency limit: an ack later than this counts
// as a failed operation.
const ackLimit = 250 * time.Millisecond

// tailWindow is the window length of the gated tail latency.
const tailWindow = 500 * time.Millisecond

// quantile returns the nearest-rank q-quantile of sorted (0 for no
// samples).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is the process-wide resource reading taken at both ends of the
// timed window.
type procSample struct {
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	gcPause  time.Duration
	maxRSSKB int64
}

func readProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpu, rss := rusage()
	return procSample{
		cpu:      cpu,
		alloc:    m.TotalAlloc,
		mallocs:  m.Mallocs,
		gcPause:  time.Duration(m.PauseTotalNs),
		maxRSSKB: rss,
	}
}

// measurement is the outcome of one run: every metric it could compute, by
// name, plus the operation counts of the contract line.
type measurement struct {
	values    map[string]float64
	attempted int
	failed    int
}

// measure turns the stamps of a verified run into metrics.
func measure(n *node, ld *load, v *verdict, stop time.Time, seconds, setupS float64, before, after procSample) *measurement {
	m := &measurement{values: map[string]float64{}, attempted: ld.offered}
	set := func(name string, x float64) { m.values[name] = x }

	last := n.blocks[len(n.blocks)-1].committed
	wall := last.Sub(ld.first)
	txs := float64(v.committed)
	blocks := float64(len(n.blocks))
	set("commit_tps", txs/wall.Seconds())
	set("setup_s", setupS)
	set("measured_s", wall.Seconds())
	set("txs", txs)
	set("blocks", blocks)

	// Latencies: from each transaction's due time to the ack point and the
	// commit of its block, leaving out the warm-up and the drain after the
	// generator stopped. The gated tail, ack_p99_ms, is the median over
	// tailWindow-long windows of due time of each window's p99: one stall
	// of the sandbox moves a plain p99 by an order of magnitude and would
	// fail a comparison of a commit with itself. The plain figures stay as
	// ack_p99_all_ms and ack_p999_ms.
	warm := ld.first.Add(min(time.Second, time.Duration(seconds*float64(time.Second)/10)))
	windows := make([][]float64, max(1, int(stop.Sub(warm)/tailWindow)))
	var commitLat, ackLat, late []float64
	var commitTotal time.Duration // over every committed transaction, warm-up and drain included
	lateAcks := 0
	for i, b := range v.txBlock {
		if b < 0 {
			continue
		}
		due := ld.due[i]
		commitTotal += n.blocks[b].committed.Sub(due)
		ack := n.log.spans[b].end.Sub(due)
		if n.w.durable && ack > ackLimit {
			lateAcks++
		}
		if due.Before(warm) || n.blocks[b].committed.After(stop) {
			continue
		}
		commitLat = append(commitLat, ms(n.blocks[b].committed.Sub(due)))
		ackLat = append(ackLat, ms(ack))
		k := min(int(due.Sub(warm)/tailWindow), len(windows)-1)
		windows[k] = append(windows[k], ms(ack))
		if n.w.loop == openLoop {
			late = append(late, ms(ld.sent[i].Sub(due)))
		}
	}
	sort.Float64s(commitLat)
	sort.Float64s(ackLat)
	sort.Float64s(late)
	var tails []float64
	for _, w := range windows {
		if len(w) > 0 {
			sort.Float64s(w)
			tails = append(tails, quantile(w, 0.99))
		}
	}
	sort.Float64s(tails)
	set("commit_p50_ms", quantile(commitLat, 0.50))
	set("commit_p99_ms", quantile(commitLat, 0.99))
	set("commit_mean_ms", ms(commitTotal)/txs)
	set("ack_p50_ms", quantile(ackLat, 0.50))
	set("ack_p99_ms", quantile(tails, 0.50))
	set("ack_p99_all_ms", quantile(ackLat, 0.99))
	set("ack_p999_ms", quantile(ackLat, 0.999))
	set("latency_samples", float64(len(commitLat)))
	set("late_p99_ms", quantile(late, 0.99))
	set("backlog_end", float64(ld.backlog))

	m.failed = ld.refused + ld.backlog + v.badAcks + lateAcks
	set("failed_share", ratio(float64(m.failed), float64(m.attempted)))

	// Layer numbers every run can give, traced or not.
	cr, css := n.result, n.shardStat
	set("mempool.txs_per_block", txs/blocks)
	deferred := 0
	for _, rec := range n.blocks {
		deferred += rec.deferred
	}
	set("mempool.deferred_per_ktx", 1000*float64(deferred)/txs)
	set("exec.abort_rate", float64(css.CrossAborts+cr.Stats.Retries)/txs)
	set("exec.repairs_per_ktx", 1000*float64(css.Repairs)/txs)
	set("exec.merge_waves_per_block", float64(css.MergeWaves)/blocks)
	set("exec.speedup_model", ratio(float64(cr.Stats.GasSeq), float64(cr.Stats.GasPar)))
	set("exec.seq_tps", txs/v.oracleApply.Seconds())
	set("exec.speedup_measured", v.oracleApply.Seconds()/cr.Stats.Wall.Seconds())
	set("basestore.evicted_per_tx", float64(css.Evicted)/txs)
	set("wal.checkpoints_skipped", float64(css.CheckpointsSkipped))
	set("wal.recover_s", v.recoverS)
	set("trace.commit_tps", m.values["commit_tps"])

	var queue, inExec []float64
	var busy time.Duration
	var covered time.Time // end of the union of [accepted, committed] so far
	for b, rec := range n.blocks {
		queue = append(queue, ms(rec.accepted.Sub(n.log.spans[b].end)))
		inExec = append(inExec, ms(rec.committed.Sub(rec.accepted)))
		from := rec.accepted
		if covered.After(from) {
			from = covered
		}
		if rec.committed.After(from) {
			busy += rec.committed.Sub(from)
			covered = rec.committed
		}
	}
	sort.Float64s(queue)
	sort.Float64s(inExec)
	set("exec.queue_ms_p50", quantile(queue, 0.50))
	set("exec.block_ms_p50", quantile(inExec, 0.50))
	set("exec.busy_share", busy.Seconds()/wall.Seconds())

	set("proc.cpu_s_per_mtx", 1e6*(after.cpu-before.cpu).Seconds()/txs)
	set("proc.alloc_bytes_per_tx", float64(after.alloc-before.alloc)/txs)
	set("proc.allocs_per_tx", float64(after.mallocs-before.mallocs)/txs)
	set("proc.gc_pause_ms", ms(after.gcPause-before.gcPause))
	set("proc.rss_peak_mb", float64(after.maxRSSKB)/1024)

	if n.w.loop == rpcClosed {
		var rtt []float64
		for i, t := range ld.sent {
			if !t.IsZero() {
				rtt = append(rtt, us(t.Sub(ld.due[i])))
			}
		}
		sort.Float64s(rtt)
		set("client.submit_rtt_us_p50", quantile(rtt, 0.50))
	}
	if n.store != nil {
		set("basestore.generations", float64(n.store.Stats().Generations))
	}
	if n.tr != nil {
		n.tr.measure(m, n, ld, v, wall)
	}
	return m
}
