package exec

import (
	"fmt"
	"slices"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/types"
)

// refOverlay is the reference model of the overlay: one map per kind of
// state and a closure journal, the most direct statement of the contract.
// Its observable semantics are the contract: values, the read/write/delta sets
// (reads and writes sticky across reverts, deltas journaled with their
// values), and applyTo. touched records first-touch order.
type refOverlay struct {
	base account.State
	op   bool

	balances map[types.Address]int64
	deltas   map[types.Address]int64
	nonces   map[types.Address]uint64
	codes    map[types.Address][]byte
	storage  map[account.StorageKey]uint64
	reads    map[StateKey]struct{}
	writes   map[StateKey]struct{}
	journal  []func()
	touched  []StateKey
}

func newRefOverlay(base account.State, op bool) *refOverlay {
	return &refOverlay{
		base: base, op: op,
		balances: map[types.Address]int64{},
		deltas:   map[types.Address]int64{},
		nonces:   map[types.Address]uint64{},
		codes:    map[types.Address][]byte{},
		storage:  map[account.StorageKey]uint64{},
		reads:    map[StateKey]struct{}{},
		writes:   map[StateKey]struct{}{},
	}
}

func (r *refOverlay) touch(k StateKey) {
	if !slices.Contains(r.touched, k) {
		r.touched = append(r.touched, k)
	}
}

func (r *refOverlay) read(k StateKey)  { r.touch(k); r.reads[k] = struct{}{} }
func (r *refOverlay) write(k StateKey) { r.touch(k); r.writes[k] = struct{}{} }

// undo journals the current entry of m[key] for restoration on revert.
func undo[K comparable, V any](r *refOverlay, m map[K]V, key K) {
	prev, had := m[key]
	r.journal = append(r.journal, func() {
		if had {
			m[key] = prev
		} else {
			delete(m, key)
		}
	})
}

// peek* resolve values without recording.
func (r *refOverlay) peekBalance(a types.Address) int64 {
	if v, ok := r.balances[a]; ok {
		return v
	}
	return r.base.GetBalance(a) + r.deltas[a]
}

func (r *refOverlay) peek(k StateKey) (uint64, []byte) {
	switch k.Kind {
	case kindBalance:
		return uint64(r.peekBalance(k.Addr)), nil
	case kindNonce:
		if v, ok := r.nonces[k.Addr]; ok {
			return v, nil
		}
		return r.base.GetNonce(k.Addr), nil
	case kindCode:
		if c, ok := r.codes[k.Addr]; ok {
			return 0, c
		}
		return 0, r.base.GetCode(k.Addr)
	default:
		if v, ok := r.storage[account.StorageKey{Addr: k.Addr, Slot: k.Slot}]; ok {
			return v, nil
		}
		return r.base.GetStorage(k.Addr, k.Slot), nil
	}
}

func (r *refOverlay) get(k StateKey) (uint64, []byte) {
	r.read(k)
	return r.peek(k)
}

func (r *refOverlay) addBalance(a types.Address, v int64) {
	k := deltaKey(a)
	if r.op {
		r.touch(k)
		undo(r, r.deltas, a)
		r.deltas[a] += v
		return
	}
	r.read(k)
	cur := r.peekBalance(a)
	r.write(k)
	undo(r, r.balances, a)
	r.balances[a] = cur + v
}

func (r *refOverlay) set(k StateKey, v uint64, code []byte) {
	r.write(k)
	switch k.Kind {
	case kindNonce:
		undo(r, r.nonces, k.Addr)
		r.nonces[k.Addr] = v
	case kindCode:
		undo(r, r.codes, k.Addr)
		r.codes[k.Addr] = slices.Clone(code)
	case kindStorage:
		sk := account.StorageKey{Addr: k.Addr, Slot: k.Slot}
		undo(r, r.storage, sk)
		r.storage[sk] = v
	}
}

func (r *refOverlay) snapshot() int { return len(r.journal) }

func (r *refOverlay) revert(snap int) {
	for i := len(r.journal) - 1; i >= snap; i-- {
		r.journal[i]()
	}
	r.journal = r.journal[:snap]
}

func (r *refOverlay) applyTo(dst account.State) {
	for a, v := range r.balances {
		dst.AddBalance(a, v-dst.GetBalance(a))
	}
	for a, d := range r.deltas {
		dst.AddBalance(a, d)
	}
	for a, n := range r.nonces {
		dst.SetNonce(a, n)
	}
	for a, c := range r.codes {
		dst.SetCode(a, c)
	}
	for sk, v := range r.storage {
		dst.SetStorage(sk.Addr, sk.Slot, v)
	}
}

// modelKey is the i-th key of the model universe: kinds cycle balance,
// nonce, code, storage over consecutive addresses.
func modelKey(i int) StateKey {
	k := StateKey{Kind: []keyKind{kindBalance, kindNonce, kindCode, kindStorage}[i%4], Addr: types.AddressFromUint64("model", uint64(i/4))}
	if k.Kind == kindStorage {
		k.Slot = uint64(i)
	}
	return k
}

// modelBase funds every key of an n-key universe with a non-zero value.
func modelBase(n int) *account.StateDB {
	st := account.NewStateDB()
	for i := 0; i < n; i++ {
		k := modelKey(i)
		switch k.Kind {
		case kindBalance:
			st.AddBalance(k.Addr, 1000+int64(i))
		case kindNonce:
			st.SetNonce(k.Addr, 3)
		case kindCode:
			st.SetCode(k.Addr, []byte{0xAA, byte(i)})
		case kindStorage:
			st.SetStorage(k.Addr, k.Slot, 11)
		}
	}
	st.DiscardJournal()
	return st
}

// Model step actions.
const (
	stepGet = iota
	stepAdd
	stepSub
	stepSet
	stepSnapshot
	stepRevert
	numStepActions
)

type modelStep struct {
	act, key int
	v        uint8
}

// modelRun drives an overlay and the reference model through the same
// steps over an nKeys universe and compares them after every step: values,
// the three access sets (as sets, each in first-touch order), applyTo into
// a StateDB, and applyTo into a pooled accumulator. It returns the overlay
// for further checks.
func modelRun(t *testing.T, nKeys int, op bool, accHint int, steps []modelStep) *overlay {
	t.Helper()
	base := modelBase(nKeys)
	o := newOverlayOp(base, op)
	r := newRefOverlay(base, op)
	type snapPair struct{ o, r int }
	var snaps []snapPair
	for n, s := range steps {
		k := modelKey(s.key % nKeys)
		switch s.act {
		case stepGet:
			var got, want uint64
			var gotCode, wantCode []byte
			switch k.Kind {
			case kindBalance:
				got = uint64(o.GetBalance(k.Addr))
			case kindNonce:
				got = o.GetNonce(k.Addr)
			case kindCode:
				gotCode = o.GetCode(k.Addr)
			case kindStorage:
				got = o.GetStorage(k.Addr, k.Slot)
			}
			want, wantCode = r.get(k)
			if got != want || string(gotCode) != string(wantCode) {
				t.Fatalf("step %d: get %v = %d/%x, model %d/%x", n, k, got, gotCode, want, wantCode)
			}
		case stepAdd, stepSub, stepSet:
			v := int64(s.v)
			if s.act == stepSub {
				v = -v
			}
			switch k.Kind {
			case kindBalance:
				o.AddBalance(k.Addr, v)
				r.addBalance(k.Addr, v)
			case kindNonce:
				o.SetNonce(k.Addr, uint64(s.v))
				r.set(k, uint64(s.v), nil)
			case kindCode:
				o.SetCode(k.Addr, []byte{s.v})
				r.set(k, 0, []byte{s.v})
			case kindStorage:
				o.SetStorage(k.Addr, k.Slot, uint64(s.v))
				r.set(k, uint64(s.v), nil)
			}
		case stepSnapshot:
			snaps = append(snaps, snapPair{o.Snapshot(), r.snapshot()})
		case stepRevert:
			if len(snaps) == 0 {
				continue
			}
			j := int(s.v) % len(snaps)
			o.RevertToSnapshot(snaps[j].o)
			r.revert(snaps[j].r)
			snaps = snaps[:j]
		}
		modelCompare(t, n, nKeys, base, o, r, accHint)
	}
	return o
}

func modelCompare(t *testing.T, n, nKeys int, base *account.StateDB, o *overlay, r *refOverlay, accHint int) {
	t.Helper()
	ro := o.reader()
	for i := 0; i < nKeys; i++ {
		k := modelKey(i)
		if got, want := peekState(ro, k), peekRef(r, k); got != want {
			t.Fatalf("step %d: %v reads %q, model %q", n, k, got, want)
		}
	}

	var deltaKeys []StateKey
	for a := range o.deltas() {
		deltaKeys = append(deltaKeys, deltaKey(a))
	}
	refDeltas := map[StateKey]struct{}{}
	for a := range r.deltas {
		refDeltas[deltaKey(a)] = struct{}{}
	}
	checkSet(t, n, "reads", slices.Collect(o.reads()), r.reads, r.touched)
	checkSet(t, n, "writes", slices.Collect(o.writes()), r.writes, r.touched)
	checkSet(t, n, "deltas", deltaKeys, refDeltas, r.touched)

	want := base.Copy()
	r.applyTo(want)
	got := base.Copy()
	o.applyTo(got)
	if got.Root() != want.Root() {
		t.Fatalf("step %d: applyTo into a StateDB diverges from the model", n)
	}

	acc := newAccumulator(base, o.op, accHint)
	if len(acc.entries) != 0 || len(acc.index) != 0 {
		t.Fatalf("step %d: pooled accumulator holds %d entries, %d index keys", n, len(acc.entries), len(acc.index))
	}
	o.applyTo(acc)
	ra := acc.reader()
	for i := 0; i < nKeys; i++ {
		k := modelKey(i)
		if got, want := peekState(ra, k), peekRef(r, k); got != want {
			t.Fatalf("step %d: accumulator %v reads %q, model %q", n, k, got, want)
		}
	}
	viaAcc := base.Copy()
	acc.applyTo(viaAcc)
	acc.release()
	if viaAcc.Root() != want.Root() {
		t.Fatalf("step %d: applyTo through an accumulator diverges from the model", n)
	}
}

// peekState and peekRef render one key's value comparably.
func peekState(s account.State, k StateKey) string {
	switch k.Kind {
	case kindBalance:
		return fmt.Sprintf("b%d", s.GetBalance(k.Addr))
	case kindNonce:
		return fmt.Sprintf("n%d", s.GetNonce(k.Addr))
	case kindCode:
		return fmt.Sprintf("c%x", s.GetCode(k.Addr))
	default:
		return fmt.Sprintf("s%d", s.GetStorage(k.Addr, k.Slot))
	}
}

func peekRef(r *refOverlay, k StateKey) string {
	v, code := r.peek(k)
	switch k.Kind {
	case kindBalance:
		return fmt.Sprintf("b%d", int64(v))
	case kindNonce:
		return fmt.Sprintf("n%d", v)
	case kindCode:
		return fmt.Sprintf("c%x", code)
	default:
		return fmt.Sprintf("s%d", v)
	}
}

// checkSet asserts that an access-set iteration yields exactly the model's
// set, without duplicates, in first-touch order.
func checkSet(t *testing.T, n int, name string, got []StateKey, want map[StateKey]struct{}, touched []StateKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %s = %v, model has %d keys", n, name, got, len(want))
	}
	last := -1
	for _, k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("step %d: %s holds %v, model does not", n, name, k)
		}
		pos := slices.Index(touched, k)
		if pos <= last {
			t.Fatalf("step %d: %s = %v is not in first-touch order %v", n, name, got, touched)
		}
		last = pos
	}
}

// decodeModelSteps maps fuzz bytes onto a mode, an accumulator size hint
// and a step sequence.
func decodeModelSteps(data []byte, nKeys int) (op bool, accHint int, steps []modelStep) {
	if len(data) == 0 {
		return false, 0, nil
	}
	op = data[0]&1 != 0
	if data[0]&2 != 0 {
		accHint = 2 * ovLinearMax // index built up front
	}
	for i := 1; i+1 < len(data); i += 2 {
		c := int(data[i])
		steps = append(steps, modelStep{act: c % numStepActions, key: c / numStepActions % nKeys, v: data[i+1]})
	}
	return op, accHint, steps
}

// FuzzOverlayModel checks the entry-slice overlay against the reference
// model over a 6-key universe: random Get/Add/Sub/SetNonce/SetCode/
// SetStorage sequences with nested Snapshot/Revert, in operation-level and
// key-level mode.
func FuzzOverlayModel(f *testing.F) {
	f.Add([]byte{1, byte(stepSnapshot), 0, byte(stepAdd), 9, byte(stepRevert), 0})
	f.Add([]byte{0, byte(stepSnapshot), 0, byte(stepSet + 2*numStepActions), 4, byte(stepRevert), 0, byte(stepGet + 2*numStepActions), 0})
	f.Add([]byte{3, byte(stepGet + 5*numStepActions), 0, byte(stepAdd), 1, byte(stepSnapshot), 0,
		byte(stepSub + 4*numStepActions), 2, byte(stepSnapshot), 0, byte(stepSet + 3*numStepActions), 7,
		byte(stepRevert), 1, byte(stepGet), 0, byte(stepRevert), 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		op, accHint, steps := decodeModelSteps(data, 6)
		modelRun(t, 6, op, accHint, steps)
	})
}

// TestOverlayModel pins the access-set semantics the fuzz target checks
// generically: what a revert undoes, first-touch iteration order, and the
// key index past ovLinearMax entries.
func TestOverlayModel(t *testing.T) {
	bal0, nonce0, code0, stor0, bal1 := 0, 1, 2, 3, 4
	cases := []struct {
		name  string
		nKeys int
		op    bool
		steps []modelStep
		check func(t *testing.T, o *overlay)
	}{
		{
			name: "reverted delta leaves the delta set", nKeys: 6, op: true,
			steps: []modelStep{{act: stepSnapshot}, {act: stepAdd, key: bal0, v: 5}, {act: stepRevert}},
			check: func(t *testing.T, o *overlay) {
				if o.hasDelta(modelKey(bal0).Addr) {
					t.Fatal("reverted delta still in the delta set")
				}
			},
		},
		{
			name: "delta before the snapshot survives the revert", nKeys: 6, op: true,
			steps: []modelStep{{act: stepAdd, key: bal0, v: 5}, {act: stepSnapshot}, {act: stepSub, key: bal0, v: 2}, {act: stepRevert}},
			check: func(t *testing.T, o *overlay) {
				if !o.hasDelta(modelKey(bal0).Addr) || o.reader().GetBalance(modelKey(bal0).Addr) != 1005 {
					t.Fatal("delta made before the snapshot lost on revert")
				}
			},
		},
		{
			name: "reverted absolute write stays in the write set", nKeys: 6,
			steps: []modelStep{{act: stepSnapshot}, {act: stepSet, key: nonce0, v: 9}, {act: stepSet, key: stor0, v: 1}, {act: stepRevert}},
			check: func(t *testing.T, o *overlay) {
				if !o.hasWrite(modelKey(nonce0)) || !o.hasWrite(modelKey(stor0)) {
					t.Fatal("reverted absolute write left the write set")
				}
				if o.reader().GetNonce(modelKey(nonce0).Addr) != 3 {
					t.Fatal("reverted nonce value survived")
				}
			},
		},
		{
			name: "key-level balance write reads first", nKeys: 6,
			steps: []modelStep{{act: stepAdd, key: bal1, v: 1}, {act: stepGet, key: code0}},
			check: func(t *testing.T, o *overlay) {
				if !o.has(modelKey(bal1), ovRead) || !o.hasWrite(modelKey(bal1)) || o.hasDelta(modelKey(bal1).Addr) {
					t.Fatal("key-level credit is not a read-modify-write")
				}
			},
		},
		{
			name: "access sets iterate in first-touch order", nKeys: 6, op: true,
			steps: []modelStep{{act: stepGet, key: stor0}, {act: stepAdd, key: bal1, v: 1}, {act: stepSet, key: code0, v: 1},
				{act: stepGet, key: bal0}, {act: stepSet, key: nonce0, v: 4}, {act: stepGet, key: code0}},
			check: func(t *testing.T, o *overlay) {
				want := []StateKey{modelKey(stor0), modelKey(code0), modelKey(bal0)}
				if got := slices.Collect(o.reads()); !slices.Equal(got, want) {
					t.Fatalf("reads = %v, want %v", got, want)
				}
			},
		},
		{
			name: "index past ovLinearMax", nKeys: 3 * ovLinearMax, op: true,
			steps: func() []modelStep {
				var s []modelStep
				for i := 0; i < 3*ovLinearMax; i++ {
					s = append(s, modelStep{act: stepSet, key: i, v: uint8(i)}, modelStep{act: stepGet, key: i})
					if i == ovLinearMax {
						s = append(s, modelStep{act: stepSnapshot})
					}
				}
				return append(s, modelStep{act: stepRevert})
			}(),
			check: func(t *testing.T, o *overlay) {
				if o.index == nil || len(o.index) != len(o.entries) {
					t.Fatalf("index has %d keys for %d entries", len(o.index), len(o.entries))
				}
				for i := range o.entries {
					if o.find(o.entries[i].key) != i {
						t.Fatalf("index misplaces %v", o.entries[i].key)
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, accHint := range []int{0, 2 * ovLinearMax} {
				c.check(t, modelRun(t, c.nKeys, c.op, accHint, c.steps))
			}
		})
	}
}

// BenchmarkOverlayTransfer is the engine's per-transaction overlay cost:
// one op is one plain transfer through procDeferred.ApplyTransaction on a
// fresh overlay over a StateDB, then applyTo into a block accumulator.
func BenchmarkOverlayTransfer(b *testing.B) {
	st := account.NewStateDB()
	from := types.AddressFromUint64("bench/from", 0)
	to := types.AddressFromUint64("bench/to", 0)
	st.AddBalance(from, 1_000_000_000)
	st.DiscardJournal()
	blk := &account.Block{Height: 1, Coinbase: types.AddressFromUint64("bench/coinbase", 0)}
	tx := &account.Transaction{From: from, To: to, Value: 7, GasPrice: 1, GasLimit: account.GasTx}
	blk.Txs = []*account.Transaction{tx}
	for _, mode := range []struct {
		name string
		op   bool
	}{{"key", false}, {"op", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				o := newOverlayOp(st, mode.op)
				if _, err := procDeferred.ApplyTransaction(o, blk, tx); err != nil {
					b.Fatal(err)
				}
				acc := newAccumulator(st, mode.op, 4)
				o.applyTo(acc)
				acc.release()
			}
		})
	}
}
