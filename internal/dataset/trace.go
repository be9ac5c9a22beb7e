package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The rwset trace format (E12). A trace is the declared-conflict view of a
// block sequence: one row per transaction carrying the transaction's
// position (block, index), its sender, its declared read/write set as a
// list of operations over opaque string keys, and a measured execution
// cost. The format is the bridge between captured real-chain data (e.g.
// the ICSE rwset-capture pipeline over Ethereum traces) and the execution
// engines: BuildReplayChain turns a trace into executable account-model
// blocks whose conflict structure is exactly the declared one.
//
// Serialisations: JSON Lines (header object on line 1, one row object per
// subsequent line) and CSV (header record first, ops as trailing
// variadic fields). Both are versioned and validated on read; see
// docs/ARCHITECTURE.md for the full specification.
const (
	// TraceFormatName is the format discriminator carried by every trace
	// header.
	TraceFormatName = "txconcur-rwset"
	// TraceVersion is the current schema version. Readers reject any other
	// version: the format is a exchange boundary with external capture
	// pipelines, so silent best-effort parsing of unknown versions is
	// exactly the failure mode the header exists to prevent.
	TraceVersion = 1
)

// Limits enforced by the trace validator. They are not arbitrary: a replay
// transaction's script contract holds one address-table entry per distinct
// key (the VM encodes the table length in one byte), and values are capped
// so that balance arithmetic over long traces stays far from int64
// overflow.
const (
	// MaxTraceOps bounds the operations of one row.
	MaxTraceOps = 4096
	// MaxTraceKeys bounds the distinct keys of one row (VM address-table
	// limit).
	MaxTraceKeys = 255
	// MaxTraceValue bounds an operation's value.
	MaxTraceValue = 1 << 32
	// MaxTraceCost bounds a row's measured cost.
	MaxTraceCost = 1 << 40
)

// Trace errors, distinguishable with errors.Is. Row-level parse and
// validation failures wrap ErrBadRecord and carry the 1-based line number.
var (
	// ErrTraceFormat reports a missing or unsupported trace header
	// (wrong format name or version skew).
	ErrTraceFormat = errors.New("dataset: unsupported trace format")
)

// OpKind is the kind of one declared state operation.
type OpKind string

// The three operation kinds of the rwset schema.
const (
	// OpRead is a read of the key.
	OpRead OpKind = "r"
	// OpWrite is an absolute write: it conflicts with every other
	// operation on the key.
	OpWrite OpKind = "w"
	// OpDelta is a commutative increment (a blind balance credit): two
	// deltas on one key commute with each other, but conflict with reads
	// and absolute writes of that key.
	OpDelta OpKind = "d"
)

// TraceOp is one declared operation of a transaction row.
type TraceOp struct {
	// Kind is the operation kind ("r", "w", or "d").
	Kind OpKind `json:"op"`
	// Key is the opaque state key (e.g. "tok0/bal/17"). Keys must be
	// non-empty, at most 256 bytes, and contain no ':' or control
	// characters (the CSV op encoding reserves ':').
	Key string `json:"key"`
	// Value is the written value (w), or the increment (d, must be ≥ 1).
	// Reads carry no value.
	Value uint64 `json:"value,omitempty"`
}

// TraceTx is one transaction row of a trace.
type TraceTx struct {
	// Block is the source block number. Rows must be grouped by block in
	// non-decreasing order; replay renumbers blocks contiguously from 0
	// and keeps the originals aside (ReplayChain.BlockNumbers).
	Block uint64 `json:"block"`
	// Index is the transaction's position within its block, contiguous
	// from 0.
	Index int `json:"index"`
	// Sender is the opaque sender identity (e.g. a hex address). Distinct
	// strings are distinct senders.
	Sender string `json:"sender"`
	// Ops is the declared read/write set, in execution order.
	Ops []TraceOp `json:"ops,omitempty"`
	// Cost is the measured execution cost (gas on captured Ethereum
	// data), the schedule weight cost-aware replay charges for this
	// transaction. Zero means "unmeasured"; replay then falls back to the
	// actual gas used.
	Cost uint64 `json:"cost,omitempty"`
}

// TraceHeader is the first line of every trace file.
type TraceHeader struct {
	// Format must be TraceFormatName.
	Format string `json:"format"`
	// Version must be TraceVersion.
	Version int `json:"version"`
	// Source is free-form provenance ("erc20-gen seed=7",
	// "bigquery:crypto_ethereum.traces 2020-01", ...).
	Source string `json:"source,omitempty"`
}

// Trace is a fully loaded rwset trace.
type Trace struct {
	Header TraceHeader
	Txs    []TraceTx
}

func (h TraceHeader) validate() error {
	if h.Format != TraceFormatName {
		return fmt.Errorf("%w: format %q, want %q", ErrTraceFormat, h.Format, TraceFormatName)
	}
	if h.Version != TraceVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrTraceFormat, h.Version, TraceVersion)
	}
	// Source is free-form but must stay single-line and printable so the
	// two encodings agree byte-for-byte (the CSV reader normalises CRLF
	// inside quoted fields, which would silently change it).
	if h.Source != "" {
		if why := badString(h.Source, false); why != "" {
			return fmt.Errorf("%w: source %q: %s", ErrTraceFormat, h.Source, why)
		}
	}
	return nil
}

// badString reports the first reason s is unusable as a key or sender:
// empty, too long, invalid UTF-8 (JSON would re-encode it as U+FFFD, so the
// two encodings would disagree), a reserved ':' (keys only), or control
// characters.
func badString(s string, reserveColon bool) string {
	if s == "" {
		return "empty"
	}
	if len(s) > 256 {
		return "longer than 256 bytes"
	}
	if !utf8.ValidString(s) {
		return "not valid UTF-8"
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c == 0x7f {
			return fmt.Sprintf("control character 0x%02x", c)
		}
		if reserveColon && c == ':' {
			return "reserved character ':'"
		}
	}
	return ""
}

// validate checks the intra-row rules: sender and key syntax, op kinds and
// value ranges, the per-row op and key limits, duplicate (kind, key)
// pairs, and the delta/write exclusion (a commutative increment and an
// absolute write of one key in one transaction have no defined relative
// order).
func (t *TraceTx) validate() error {
	if reason := badString(t.Sender, false); reason != "" {
		return fmt.Errorf("sender %q: %s", t.Sender, reason)
	}
	if t.Index < 0 {
		return fmt.Errorf("negative index %d", t.Index)
	}
	if t.Cost > MaxTraceCost {
		return fmt.Errorf("cost %d exceeds limit %d", t.Cost, uint64(MaxTraceCost))
	}
	if len(t.Ops) > MaxTraceOps {
		return fmt.Errorf("%d ops exceed limit %d", len(t.Ops), MaxTraceOps)
	}
	seen := make(map[TraceOp]struct{}, len(t.Ops))
	kinds := make(map[string]OpKind, len(t.Ops))
	keys := make(map[string]struct{}, len(t.Ops))
	for i, op := range t.Ops {
		if reason := badString(op.Key, true); reason != "" {
			return fmt.Errorf("op %d key %q: %s", i, op.Key, reason)
		}
		switch op.Kind {
		case OpRead:
			if op.Value != 0 {
				return fmt.Errorf("op %d: read of %q carries value %d", i, op.Key, op.Value)
			}
		case OpWrite:
			if op.Value > MaxTraceValue {
				return fmt.Errorf("op %d: value %d exceeds limit %d", i, op.Value, uint64(MaxTraceValue))
			}
		case OpDelta:
			if op.Value == 0 {
				return fmt.Errorf("op %d: delta on %q needs a value ≥ 1", i, op.Key)
			}
			if op.Value > MaxTraceValue {
				return fmt.Errorf("op %d: value %d exceeds limit %d", i, op.Value, uint64(MaxTraceValue))
			}
		default:
			return fmt.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
		dup := TraceOp{Kind: op.Kind, Key: op.Key}
		if _, ok := seen[dup]; ok {
			return fmt.Errorf("op %d: duplicate %s of key %q", i, op.Kind, op.Key)
		}
		seen[dup] = struct{}{}
		if prev, ok := kinds[op.Key]; ok {
			if (prev == OpDelta && op.Kind == OpWrite) || (prev == OpWrite && op.Kind == OpDelta) {
				return fmt.Errorf("op %d: key %q has both a delta and an absolute write", i, op.Key)
			}
			if prev == OpRead {
				kinds[op.Key] = op.Kind // remember the mutating kind
			}
		} else {
			kinds[op.Key] = op.Kind
		}
		keys[op.Key] = struct{}{}
		if len(keys) > MaxTraceKeys {
			return fmt.Errorf("more than %d distinct keys", MaxTraceKeys)
		}
	}
	return nil
}

// traceOrder enforces the inter-row rules across a stream: block numbers
// non-decreasing (strictly increasing across block boundaries) and
// per-block indices contiguous from 0.
type traceOrder struct {
	started bool
	block   uint64
	index   int
}

func (o *traceOrder) check(t *TraceTx) error {
	switch {
	case !o.started:
		if t.Index != 0 {
			return fmt.Errorf("first row of block %d has index %d, want 0", t.Block, t.Index)
		}
	case t.Block == o.block:
		if t.Index != o.index+1 {
			return fmt.Errorf("block %d: index %d after %d, want %d", t.Block, t.Index, o.index, o.index+1)
		}
	case t.Block < o.block:
		return fmt.Errorf("block %d after block %d: blocks must be non-decreasing", t.Block, o.block)
	default:
		if t.Index != 0 {
			return fmt.Errorf("first row of block %d has index %d, want 0", t.Block, t.Index)
		}
	}
	o.started, o.block, o.index = true, t.Block, t.Index
	return nil
}

// Validate checks the whole trace: header, every row, and row ordering.
func (t *Trace) Validate() error {
	if err := t.Header.validate(); err != nil {
		return err
	}
	var ord traceOrder
	for i := range t.Txs {
		if err := t.Txs[i].validate(); err != nil {
			return fmt.Errorf("%w: row %d: %w", ErrBadRecord, i, err)
		}
		if err := ord.check(&t.Txs[i]); err != nil {
			return fmt.Errorf("%w: row %d: %w", ErrBadRecord, i, err)
		}
	}
	return nil
}

// lineReader yields the trimmed non-blank lines of a stream with their
// 1-based line numbers, tolerating a missing final newline.
type lineReader struct {
	br   *bufio.Reader
	line int
	eof  bool
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReader(r)}
}

// next returns the next non-blank line. It returns io.EOF once the stream
// is exhausted and any other read error verbatim.
func (lr *lineReader) next() ([]byte, int, error) {
	for !lr.eof {
		raw, err := lr.br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			lr.eof = true
		} else if err != nil {
			return nil, lr.line + 1, err
		}
		if len(raw) == 0 {
			break
		}
		lr.line++
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
			return trimmed, lr.line, nil
		}
	}
	return nil, lr.line, io.EOF
}

// decodeJSONLine unmarshals exactly one JSON value from a line, rejecting
// a bare null (json.Unmarshal would silently leave the target zero —
// the phantom-row bug) and trailing data after the value.
func decodeJSONLine(line []byte, v any) error {
	if bytes.Equal(line, []byte("null")) {
		return errors.New("bare null is not a row")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after row")
	}
	return nil
}

// The exact JSON field names of the trace records. encoding/json matches
// keys case-insensitively and ignores unknown ones, so the trace decoder
// checks names itself: "formAt" is not a header field, and a row carrying
// both "sender" and "Sender" is malformed rather than silently read as
// the latter.
var (
	headerFields = jsonFieldNames(TraceHeader{})
	rowFields    = jsonFieldNames(TraceTx{})
	opFields     = jsonFieldNames(TraceOp{})
)

func jsonFieldNames(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}

// checkFieldNames rejects any key of obj that is not exactly one of names.
func checkFieldNames(obj map[string]json.RawMessage, names []string) error {
	for _, k := range slices.Sorted(maps.Keys(obj)) {
		if !slices.Contains(names, k) {
			return fmt.Errorf("unknown field %q (want one of %s)", k, strings.Join(names, ", "))
		}
	}
	return nil
}

// decodeTraceLine is decodeJSONLine for a trace header or row: the line
// must be one JSON object whose keys, and each op's keys, are exact field
// names.
func decodeTraceLine(line []byte, v any, fields []string) error {
	var obj map[string]json.RawMessage
	if err := decodeJSONLine(line, &obj); err != nil {
		return err
	}
	if err := checkFieldNames(obj, fields); err != nil {
		return err
	}
	if raw, ok := obj["ops"]; ok {
		var ops []map[string]json.RawMessage
		if err := json.Unmarshal(raw, &ops); err != nil {
			return err
		}
		for i, op := range ops {
			if err := checkFieldNames(op, opFields); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return json.Unmarshal(line, v)
}

// TraceReader streams a JSONL trace: the header is read and validated by
// NewTraceReader, rows by successive Next calls. Row errors carry the
// 1-based line number; ordering violations are detected as they stream.
type TraceReader struct {
	// Header is the validated trace header.
	Header TraceHeader

	lr  *lineReader
	ord traceOrder
}

// NewTraceReader reads and validates the header line.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	lr := newLineReader(r)
	line, n, err := lr.next()
	if errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: empty stream, no header", ErrTraceFormat)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, n, err)
	}
	var h TraceHeader
	if err := decodeTraceLine(line, &h, headerFields); err != nil {
		return nil, fmt.Errorf("%w: header line %d: %w", ErrTraceFormat, n, err)
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return &TraceReader{Header: h, lr: lr}, nil
}

// Next returns the next validated row, or io.EOF at the end of the stream.
func (tr *TraceReader) Next() (*TraceTx, error) {
	line, n, err := tr.lr.next()
	if errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, n, err)
	}
	var tx TraceTx
	if err := decodeTraceLine(line, &tx, rowFields); err != nil {
		return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, n, err)
	}
	if len(tx.Ops) == 0 {
		tx.Ops = nil // "ops":[] is the same row as an absent "ops"
	}
	if err := tx.validate(); err != nil {
		return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, n, err)
	}
	if err := tr.ord.check(&tx); err != nil {
		return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, n, err)
	}
	return &tx, nil
}

// ReadTrace loads and validates a whole JSONL trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	out := &Trace{Header: tr.Header}
	for {
		tx, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Txs = append(out.Txs, *tx)
	}
}

// WriteTrace writes a trace as JSON Lines, validating as it goes (the
// writer refuses to produce a stream its own reader would reject). A zero
// Header is filled in with the current format name and version.
func WriteTrace(w io.Writer, t *Trace) error {
	h := t.Header
	if h.Format == "" && h.Version == 0 {
		h.Format, h.Version = TraceFormatName, TraceVersion
	}
	if err := h.validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("dataset: encode trace header: %w", err)
	}
	var ord traceOrder
	for i := range t.Txs {
		if err := t.Txs[i].validate(); err != nil {
			return fmt.Errorf("%w: row %d: %w", ErrBadRecord, i, err)
		}
		if err := ord.check(&t.Txs[i]); err != nil {
			return fmt.Errorf("%w: row %d: %w", ErrBadRecord, i, err)
		}
		if err := enc.Encode(&t.Txs[i]); err != nil {
			return fmt.Errorf("dataset: encode trace row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// encodeOpCSV renders one op as the "kind:key" / "kind:key:value" CSV
// field.
func encodeOpCSV(op TraceOp) string {
	if op.Value == 0 {
		return string(op.Kind) + ":" + op.Key
	}
	return string(op.Kind) + ":" + op.Key + ":" + strconv.FormatUint(op.Value, 10)
}

func decodeOpCSV(field string) (TraceOp, error) {
	parts := strings.Split(field, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return TraceOp{}, fmt.Errorf("op %q: want kind:key[:value]", field)
	}
	op := TraceOp{Kind: OpKind(parts[0]), Key: parts[1]}
	if len(parts) == 3 {
		v, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return TraceOp{}, fmt.Errorf("op %q: bad value: %w", field, err)
		}
		op.Value = v
	}
	return op, nil
}

// WriteTraceCSV writes a trace as CSV: a header record
// (format, version, source) followed by one record per row —
// block, index, sender, cost, then one field per op ("kind:key[:value]").
func WriteTraceCSV(w io.Writer, t *Trace) error {
	h := t.Header
	if h.Format == "" && h.Version == 0 {
		h.Format, h.Version = TraceFormatName, TraceVersion
	}
	if err := h.validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{h.Format, strconv.Itoa(h.Version), h.Source}); err != nil {
		return fmt.Errorf("dataset: write trace header: %w", err)
	}
	var ord traceOrder
	for i := range t.Txs {
		tx := &t.Txs[i]
		if err := tx.validate(); err != nil {
			return fmt.Errorf("%w: row %d: %w", ErrBadRecord, i, err)
		}
		if err := ord.check(tx); err != nil {
			return fmt.Errorf("%w: row %d: %w", ErrBadRecord, i, err)
		}
		rec := make([]string, 0, 4+len(tx.Ops))
		rec = append(rec,
			strconv.FormatUint(tx.Block, 10),
			strconv.Itoa(tx.Index),
			tx.Sender,
			strconv.FormatUint(tx.Cost, 10))
		for _, op := range tx.Ops {
			rec = append(rec, encodeOpCSV(op))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write trace row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTraceCSV loads and validates a CSV trace.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	hdr, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: empty stream, no header", ErrTraceFormat)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrTraceFormat, err)
	}
	if len(hdr) != 3 {
		return nil, fmt.Errorf("%w: header has %d fields, want 3", ErrTraceFormat, len(hdr))
	}
	version, err := strconv.Atoi(hdr[1])
	if err != nil {
		return nil, fmt.Errorf("%w: bad version %q", ErrTraceFormat, hdr[1])
	}
	out := &Trace{Header: TraceHeader{Format: hdr[0], Version: version, Source: hdr[2]}}
	if err := out.Header.validate(); err != nil {
		return nil, err
	}
	var ord traceOrder
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		line := lineOfCSVErr(cr, err)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, line, err)
		}
		if len(rec) < 4 {
			return nil, fmt.Errorf("%w: line %d: %d fields, want at least 4", ErrBadRecord, line, len(rec))
		}
		var tx TraceTx
		if tx.Block, err = strconv.ParseUint(rec[0], 10, 64); err != nil {
			return nil, fmt.Errorf("%w: line %d: bad block %q", ErrBadRecord, line, rec[0])
		}
		if tx.Index, err = strconv.Atoi(rec[1]); err != nil {
			return nil, fmt.Errorf("%w: line %d: bad index %q", ErrBadRecord, line, rec[1])
		}
		tx.Sender = rec[2]
		if tx.Cost, err = strconv.ParseUint(rec[3], 10, 64); err != nil {
			return nil, fmt.Errorf("%w: line %d: bad cost %q", ErrBadRecord, line, rec[3])
		}
		for _, field := range rec[4:] {
			op, err := decodeOpCSV(field)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, line, err)
			}
			tx.Ops = append(tx.Ops, op)
		}
		if err := tx.validate(); err != nil {
			return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, line, err)
		}
		if err := ord.check(&tx); err != nil {
			return nil, fmt.Errorf("%w: line %d: %w", ErrBadRecord, line, err)
		}
		out.Txs = append(out.Txs, tx)
	}
}

// lineOfCSVErr extracts the 1-based line of the current record: from the
// csv parse error when there is one, from the reader's field position
// after a successful read, 0 when the position is unknowable (I/O error
// mid-record).
func lineOfCSVErr(cr *csv.Reader, err error) int {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		return pe.Line
	}
	if err != nil {
		return 0
	}
	line, _ := cr.FieldPos(0)
	return line
}
