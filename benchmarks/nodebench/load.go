package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"txconcur/internal/client"
)

// load is what the generators record, indexed by stream position. Each
// element has one writer; everything is read after offer returns.
type load struct {
	// due is when the transaction was due to be sent: the schedule time on
	// the open loop, the moment the generator turned to it otherwise. The
	// zero time marks a transaction that was never offered.
	due []time.Time
	// sent is when the generator actually issued the open-loop submission
	// (lateness is sent minus due) and, on rpc-closed, when the reply came
	// back (the round trip is sent minus due).
	sent []time.Time
	// acks holds the durable submissions' outcome channels.
	acks []<-chan error

	offered int // submissions attempted
	refused int // submissions the service turned down or errored
	backlog int // open loop: due before the deadline but never sent
	first   time.Time
}

// offer drives the node with the workload's loop until the deadline
// (seconds after the first submission) or the end of the stream, and
// returns once the last submission has been admitted or refused.
func (n *node) offer(ctx context.Context, seconds float64) *load {
	ld := &load{due: make([]time.Time, len(n.stream.txs))}
	ld.first = time.Now()
	deadline := ld.first.Add(time.Duration(seconds * float64(time.Second)))
	switch n.w.loop {
	case saturated:
		n.offerSaturated(ctx, ld, deadline)
	case openLoop:
		n.offerOpen(ctx, ld, deadline)
	case rpcClosed:
		n.offerRPC(ctx, ld, deadline)
	}
	return ld
}

func (n *node) offerSaturated(ctx context.Context, ld *load, deadline time.Time) {
	for i, p := range n.stream.txs {
		now := time.Now()
		if now.After(deadline) {
			return
		}
		ld.due[i] = now
		ld.offered++
		if err := n.pool.Submit(ctx, p); err != nil {
			// Later nonces of this sender could never commit; stop here
			// and let the count show it.
			ld.refused++
			return
		}
	}
}

func (n *node) offerOpen(ctx context.Context, ld *load, deadline time.Time) {
	ld.sent = make([]time.Time, len(n.stream.txs))
	ld.acks = make([]<-chan error, len(n.stream.txs))
	gap := float64(time.Second) / n.w.nominalTPS
	for i, p := range n.stream.txs {
		due := ld.first.Add(time.Duration(float64(i) * gap))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		if now.After(deadline.Add(ackLimit)) {
			// The generator is so far behind that nothing it still holds
			// could meet the latency limit. All of it was due inside the
			// window, so it counts as offered and failed.
			ld.backlog = len(n.stream.txs) - i
			ld.offered += ld.backlog
			return
		}
		ld.due[i], ld.sent[i] = due, now
		ld.offered++
		ack, err := n.pool.SubmitDurable(ctx, p)
		if err != nil {
			ld.refused++
			return
		}
		ld.acks[i] = ack
	}
}

func (n *node) offerRPC(ctx context.Context, ld *load, deadline time.Time) {
	ld.sent = make([]time.Time, len(n.stream.txs))
	// One Submitter on one connection: with more, the offered load reaches
	// the executor's capacity on two cores and runs flip between an empty
	// and a full pool.
	tp := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	sub := &client.Submitter{Collector: client.Collector{
		URL:        "http://" + n.listener.Addr().String(),
		HTTPClient: &http.Client{Transport: tp},
	}}
	for i, tx := range n.wire {
		now := time.Now()
		if now.After(deadline) {
			return
		}
		ld.due[i] = now
		ld.offered++
		if err := sub.Submit(ctx, tx); err != nil {
			fmt.Fprintf(stderr, "nodebench: rpc submit: %v\n", err)
			ld.refused++
			return
		}
		ld.sent[i] = time.Now()
	}
}
