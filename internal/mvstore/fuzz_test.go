package mvstore

import "testing"

// FuzzDeltaChains drives a delta store through an arbitrary interleaving of
// absolute commits, delta commits, pins, GC passes and cold-key evictions,
// checking every key's Resolve at the tip — and at one pinned timestamp —
// against a plain model after each step, along with the occupancy counters.
// This is the model-checking counterpart of the permutation/GC property
// tests: the byte stream chooses the schedule.
func FuzzDeltaChains(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x07, 0x99, 0x10, 0x05, 0x33, 0xfe, 0x06, 0x00})
	f.Add([]byte{0x05, 0x01, 0x05, 0x02, 0x05, 0x03, 0x06, 0xff, 0x00, 0x7f})
	f.Add([]byte{0x03, 0x80, 0x04, 0x81, 0x03, 0x82, 0x06, 0x01, 0x07, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nKeys = 4
		s := NewStoreDelta[int, int64](func(a, b int64) int64 { return a + b })

		// bases is the base layer under the cache: every key starts at
		// 10_000, and an evicted key's materialised value replaces its
		// entry, as exec.evictShards persists it.
		var bases [nKeys]int64
		for k := range bases {
			bases[k] = 10_000
		}
		// model holds each key's writes since its base: an absolute value,
		// or the sum of the deltas to fold onto the base.
		type cell struct {
			anchored bool
			val      int64
		}
		var model [nKeys]cell
		resolve := func(k int) int64 {
			if model[k].anchored {
				return model[k].val
			}
			return bases[k] + model[k].val
		}
		// history[ts] is every key's resolved value as of ts.
		resolved := func() (r [nKeys]int64) {
			for k := range r {
				r[k] = resolve(k)
			}
			return r
		}
		history := [][nKeys]int64{resolved()} // ts 0
		commit := func(k int, w Write[int64]) {
			if err := s.CommitWrites(s.Latest()+1, map[int]Write[int64]{k: w}); err != nil {
				t.Fatal(err)
			}
			if w.Kind == Put {
				model[k] = cell{anchored: true, val: w.Val}
			} else {
				model[k].val += w.Val
			}
			history = append(history, resolved())
		}

		var pin *Snapshot[int, int64]
		var pinTS uint64
		// gcFloor is the highest cut the collector or the evictor has been
		// allowed to apply; pinning below it would violate PinAt's contract
		// (a pin cannot resurrect collected versions or dropped chains).
		var gcFloor uint64
		defer func() {
			if pin != nil {
				pin.Release()
			}
		}()
		// raiseFloor records a pass at horizon: the effective cut never
		// exceeds the tip (there is nothing newer to collect below) and
		// never exceeds the pin.
		raiseFloor := func(horizon, tip uint64) {
			cut := min(horizon, tip)
			if pin != nil {
				cut = min(cut, pinTS)
			}
			gcFloor = max(gcFloor, cut)
		}
		// checkCounters: Versions counts exactly the nodes reachable from
		// resident heads and Keys the resident chains, so a chain dropped
		// while the GC queue still points at it is never counted twice.
		checkCounters := func(step int) {
			nodes, chains := 0, 0
			s.chains.Range(func(_, c any) bool {
				chains++
				for n := c.(*keyChain[int64]).head.Load(); n != nil; n = n.prev.Load() {
					nodes++
				}
				return true
			})
			if st := s.StoreStats(); st.Versions != nodes || st.Keys != chains {
				t.Fatalf("step %d: stats %d versions / %d keys, reachable %d nodes / %d chains", step, st.Versions, st.Keys, nodes, chains)
			}
		}
		lastDropped := -1

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], int64(int8(data[i+1]))
			key := int(op>>4) % nKeys
			ts := s.Latest()
			switch op % 16 {
			case 0, 1, 2: // delta commit
				commit(key, Write[int64]{Kind: DeltaAdd, Val: arg})
			case 3, 4: // absolute commit
				commit(key, Write[int64]{Kind: Put, Val: arg})
			case 5: // empty commit (an empty block still advances the clock)
				if err := s.CommitWrites(ts+1, nil); err != nil {
					t.Fatal(err)
				}
				history = append(history, resolved())
			case 6, 15: // GC at an arbitrary horizon
				horizon := uint64(arg&0x3f) % (ts + 2)
				s.TruncateBelow(horizon)
				raiseFloor(horizon, ts)
			case 7: // move the pin (never below what GC already collected)
				if pin != nil {
					pin.Release()
				}
				pinTS = gcFloor + uint64(arg&0x3f)%(ts-gcFloor+1)
				pin = s.PinAt(pinTS)
			case 8, 9: // evict: collect cold chains, persist them, drop them
				horizon := uint64(arg&0x3f) % (ts + 2)
				// The checks below read every key, so one pass first clears
				// the clock bits that would give each a second chance.
				s.CollectCold(horizon, 0)
				cold := s.CollectCold(horizon, int(arg&3))
				keys := make([]int, len(cold))
				for j, ev := range cold {
					v := ev.Val
					if !ev.Anchored {
						v += bases[ev.Key]
					}
					if want := resolve(ev.Key); v != want {
						t.Fatalf("step %d: evicted %d materialises to %d, want %d", i, ev.Key, v, want)
					}
					bases[ev.Key] = v
					model[ev.Key] = cell{}
					keys[j] = ev.Key
				}
				if got := s.DropChains(keys, horizon); got != len(keys) {
					t.Fatalf("step %d: dropped %d of %d collected chains", i, got, len(keys))
				}
				if len(keys) > 0 {
					lastDropped = keys[len(keys)-1]
				}
				raiseFloor(horizon, ts)
			case 10, 11, 12: // delta commit to the last evicted key
				if lastDropped >= 0 {
					key = lastDropped
				}
				commit(key, Write[int64]{Kind: DeltaAdd, Val: arg})
			case 13, 14: // absolute commit to the last evicted key
				if lastDropped >= 0 {
					key = lastDropped
				}
				commit(key, Write[int64]{Kind: Put, Val: arg})
			}

			tip := s.Latest()
			for k := 0; k < nKeys; k++ {
				if got, want := s.Resolve(k, tip, bases[k]), history[tip][k]; got != want {
					t.Fatalf("step %d: Resolve(%d, tip=%d) = %d, want %d", i, k, tip, got, want)
				}
				if pin != nil {
					if got, want := pin.Resolve(k, bases[k]), history[pinTS][k]; got != want {
						t.Fatalf("step %d: pinned Resolve(%d, %d) = %d, want %d", i, k, pinTS, got, want)
					}
				}
			}
			checkCounters(i)
		}
		// Final sweep: release the pin, collect everything below the tip,
		// and re-verify the tip; the cut now passes every install, so the
		// GC queue must be empty.
		if pin != nil {
			pin.Release()
			pin = nil
		}
		tip := s.Latest()
		s.TruncateBelow(tip)
		for k := 0; k < nKeys; k++ {
			if got, want := s.Resolve(k, tip, bases[k]), history[tip][k]; got != want {
				t.Fatalf("post-GC: Resolve(%d, tip=%d) = %d, want %d", k, tip, got, want)
			}
		}
		checkCounters(len(data))
		if len(s.gcq) != 0 {
			t.Fatalf("post-GC: %d installs still queued at cut %d", len(s.gcq), tip)
		}
	})
}
