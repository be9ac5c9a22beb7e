package dataset

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"txconcur/internal/exec"
	"txconcur/internal/types"
)

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenerateERC20Trace(ERC20TraceConfig{Blocks: 3, TxPerBlock: 12, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("JSONL round trip changed the trace")
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("CSV round trip changed the trace")
	}
}

func TestTraceReaderStreams(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	r, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header != tr.Header {
		t.Fatalf("header %+v != %+v", r.Header, tr.Header)
	}
	var rows []TraceTx
	for {
		row, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, *row)
	}
	if !reflect.DeepEqual(rows, tr.Txs) {
		t.Fatal("streamed rows differ from batch read")
	}
}

// TestTraceRejects pins the validator's rejection surface: header-level
// failures wrap ErrTraceFormat, row-level failures wrap ErrBadRecord, and
// nothing panics.
func TestTraceRejects(t *testing.T) {
	header := `{"format":"txconcur-rwset","version":1}` + "\n"
	headerCases := map[string]string{
		"empty input":                "",
		"wrong format name":          `{"format":"other","version":1}` + "\n",
		"version skew":               `{"format":"txconcur-rwset","version":2}` + "\n",
		"null header":                "null\n",
		"trailing garbage on header": `{"format":"txconcur-rwset","version":1} {"x":1}` + "\n",
		"case-folded header key":     `{"formAt":"txconcur-rwset","version":1}` + "\n",
		"upper-case version":         `{"format":"txconcur-rwset","VERSION":1}` + "\n",
		"unknown header key":         `{"format":"txconcur-rwset","version":1,"extra":0}` + "\n",
	}
	for name, in := range headerCases {
		if _, err := ReadTrace(strings.NewReader(in)); !errors.Is(err, ErrTraceFormat) {
			t.Errorf("%s: got %v, want ErrTraceFormat", name, err)
		}
	}
	rowCases := map[string]string{
		"null row":             header + "null\n",
		"row starts mid-block": header + `{"block":0,"index":1,"sender":"a","ops":[{"op":"d","key":"k","value":1}]}` + "\n",
		"index gap": header +
			`{"block":0,"index":0,"sender":"a","ops":[{"op":"d","key":"k","value":1}]}` + "\n" +
			`{"block":0,"index":2,"sender":"a","ops":[{"op":"d","key":"k","value":1}]}` + "\n",
		"block goes backwards": header +
			`{"block":5,"index":0,"sender":"a","ops":[{"op":"d","key":"k","value":1}]}` + "\n" +
			`{"block":4,"index":0,"sender":"a","ops":[{"op":"d","key":"k","value":1}]}` + "\n",
		"unknown op kind":              header + `{"block":0,"index":0,"sender":"a","ops":[{"op":"x","key":"k"}]}` + "\n",
		"empty key":                    header + `{"block":0,"index":0,"sender":"a","ops":[{"op":"r","key":""}]}` + "\n",
		"colon in key":                 header + `{"block":0,"index":0,"sender":"a","ops":[{"op":"r","key":"a:b"}]}` + "\n",
		"empty sender":                 header + `{"block":0,"index":0,"sender":"","ops":[{"op":"r","key":"k"}]}` + "\n",
		"read with value":              header + `{"block":0,"index":0,"sender":"a","ops":[{"op":"r","key":"k","value":1}]}` + "\n",
		"zero delta":                   header + `{"block":0,"index":0,"sender":"a","ops":[{"op":"d","key":"k"}]}` + "\n",
		"duplicate (kind,key)":         header + `{"block":0,"index":0,"sender":"a","ops":[{"op":"r","key":"k"},{"op":"r","key":"k"}]}` + "\n",
		"delta plus write":             header + `{"block":0,"index":0,"sender":"a","ops":[{"op":"d","key":"k","value":1},{"op":"w","key":"k","value":2}]}` + "\n",
		"case-folded duplicate sender": header + `{"block":0,"index":0,"sender":"a","Sender":"b","ops":[{"op":"r","key":"k"}]}` + "\n",
		"upper-case op key":            header + `{"block":0,"index":0,"sender":"a","ops":[{"OP":"r","key":"k"}]}` + "\n",
		"unknown row key":              header + `{"block":0,"index":0,"sender":"a","gas":1,"ops":[{"op":"r","key":"k"}]}` + "\n",
	}
	for name, in := range rowCases {
		if _, err := ReadTrace(strings.NewReader(in)); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: got %v, want ErrBadRecord", name, err)
		}
	}
}

// TestReadJSONLLineNumbers pins the satellite fix: parse errors cite
// 1-based line numbers, and trailing garbage after a row's JSON value is
// an error, not a silently decoded phantom row.
func TestReadJSONLLineNumbers(t *testing.T) {
	_, err := ReadJSONL[AccountTxRow](strings.NewReader("{\"block_number\":1}\nnot json\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("got %v, want ErrBadRecord", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not cite line 2", err)
	}

	if _, err := ReadJSONL[AccountTxRow](strings.NewReader("{} {}\n")); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("two values on one line: got %v, want ErrBadRecord", err)
	}
	if _, err := ReadJSONL[AccountTxRow](strings.NewReader("null\n")); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bare null row: got %v, want ErrBadRecord", err)
	}

	rows, err := ReadJSONL[AccountTxRow](strings.NewReader("{\"block_number\":7}"))
	if err != nil || len(rows) != 1 || rows[0].BlockNumber != 7 {
		t.Fatalf("missing final newline: rows=%v err=%v", rows, err)
	}
}

// TestGeneratorDeterminism: same seed, same trace; different seed,
// different trace (testing/quick over seeds).
func TestGeneratorDeterminism(t *testing.T) {
	same := func(seed int64) bool {
		a, err1 := GenerateERC20Trace(ERC20TraceConfig{Blocks: 2, TxPerBlock: 8, Seed: seed})
		b, err2 := GenerateERC20Trace(ERC20TraceConfig{Blocks: 2, TxPerBlock: 8, Seed: seed})
		return err1 == nil && err2 == nil && reflect.DeepEqual(a, b)
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	a, _ := GenerateERC20Trace(ERC20TraceConfig{Blocks: 2, TxPerBlock: 8, Seed: 1})
	b, _ := GenerateERC20Trace(ERC20TraceConfig{Blocks: 2, TxPerBlock: 8, Seed: 2})
	if reflect.DeepEqual(a.Txs, b.Txs) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTraceBlocksRoundTrip: trace -> replay blocks -> trace is the
// identity (testing/quick over generator seeds).
func TestTraceBlocksRoundTrip(t *testing.T) {
	roundTrip := func(seed int64) bool {
		tr, err := GenerateERC20Trace(ERC20TraceConfig{Blocks: 2, TxPerBlock: 10, Seed: seed})
		if err != nil {
			return false
		}
		rc, err := BuildReplayChain(tr)
		if err != nil {
			return false
		}
		back, err := rc.Trace()
		if err != nil {
			return false
		}
		// Block numbers are renumbered 0.. during the build; the original
		// numbering is preserved in rc.BlockNumbers, so compare modulo it.
		want := *tr
		want.Txs = append([]TraceTx(nil), tr.Txs...)
		renum := make(map[uint64]uint64, len(rc.BlockNumbers))
		for i, bn := range rc.BlockNumbers {
			renum[bn] = uint64(i)
		}
		for i := range want.Txs {
			want.Txs[i].Block = renum[want.Txs[i].Block]
		}
		return reflect.DeepEqual(&want, back)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestCostPermutationInvariance: the measured costs live in a side table,
// never in state, so permuting them across transactions cannot change any
// replay root (testing/quick over permutation seeds).
func TestCostPermutationInvariance(t *testing.T) {
	tr := smallTrace(t)
	rc, err := BuildReplayChain(tr)
	if err != nil {
		t.Fatal(err)
	}
	baseRoot, err := seqChainRoot(rc)
	if err != nil {
		t.Fatal(err)
	}
	perm := func(seed int64) bool {
		mut := *tr
		mut.Txs = append([]TraceTx(nil), tr.Txs...)
		rng := rand.New(rand.NewSource(seed))
		costs := make([]uint64, len(mut.Txs))
		for i := range mut.Txs {
			costs[i] = mut.Txs[i].Cost
		}
		rng.Shuffle(len(costs), func(i, j int) { costs[i], costs[j] = costs[j], costs[i] })
		for i := range mut.Txs {
			mut.Txs[i].Cost = costs[i]
		}
		mrc, err := BuildReplayChain(&mut)
		if err != nil {
			return false
		}
		root, err := seqChainRoot(mrc)
		return err == nil && root == baseRoot
	}
	if err := quick.Check(perm, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func seqChainRoot(rc *ReplayChain) (types.Hash, error) {
	st := rc.Pre.Copy()
	for _, blk := range rc.Blocks {
		if _, err := exec.Sequential(st, blk); err != nil {
			return types.Hash{}, err
		}
	}
	return st.Root(), nil
}

// TestTraceFromAccountRows exercises the importer on a tiny handmade
// table, including internal calls widening the read/write set.
func TestTraceFromAccountRows(t *testing.T) {
	a := types.AddressFromUint64("t", 1)
	b := types.AddressFromUint64("t", 2)
	c := types.AddressFromUint64("t", 3)
	h1 := types.Hash{1}
	h2 := types.Hash{2}
	rows := []AccountTxRow{
		{BlockNumber: 9, Hash: h1, From: a, To: b, GasUsed: 30000},
		{BlockNumber: 9, Hash: h1, From: b, To: c, IsInternal: true},
		{BlockNumber: 9, Hash: h2, From: c, To: a, GasUsed: 21000},
	}
	tr, err := TraceFromAccountRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Txs) != 2 {
		t.Fatalf("got %d rows, want 2", len(tr.Txs))
	}
	// Tx 0 touches a, b from the top-level transfer and c via the internal
	// call: 3 keys, each read+written.
	if got := len(tr.Txs[0].Ops); got != 6 {
		t.Fatalf("tx 0: %d ops, want 6", got)
	}
	if tr.Txs[0].Cost != 30000 || tr.Txs[1].Cost != 21000 {
		t.Fatalf("costs %d,%d", tr.Txs[0].Cost, tr.Txs[1].Cost)
	}
	// Orphan internal rows (no preceding parent with the same hash) error.
	if _, err := TraceFromAccountRows([]AccountTxRow{
		{BlockNumber: 1, Hash: h1, From: a, To: b, IsInternal: true},
	}); err == nil {
		t.Fatal("orphan internal row accepted")
	}
	// The imported trace must compile and replay.
	rc, err := BuildReplayChain(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seqChainRoot(rc); err != nil {
		t.Fatal(err)
	}
}
