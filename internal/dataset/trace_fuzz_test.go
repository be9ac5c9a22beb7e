package dataset

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// FuzzTraceRoundTrip feeds arbitrary bytes to both trace decoders. The
// contract under test: malformed input — truncated streams, duplicate
// keys, version skew, stray garbage — must return an error, never panic;
// and any input a decoder accepts must survive a write/read round trip in
// both encodings without changing.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(goldenRWSet)
	f.Add([]byte(`{"format":"txconcur-rwset","version":1}` + "\n"))
	f.Add([]byte(`{"format":"txconcur-rwset","version":1}` + "\n" +
		`{"block":0,"index":0,"sender":"a","ops":[{"op":"d","key":"k","value":1}],"cost":5}` + "\n"))
	// Truncated mid-row.
	f.Add([]byte(`{"format":"txconcur-rwset","version":1}` + "\n" + `{"block":0,"index":0,"sen`))
	// Duplicate (kind,key).
	f.Add([]byte(`{"format":"txconcur-rwset","version":1}` + "\n" +
		`{"block":0,"index":0,"sender":"a","ops":[{"op":"r","key":"k"},{"op":"r","key":"k"}]}` + "\n"))
	// Version skew.
	f.Add([]byte(`{"format":"txconcur-rwset","version":99}` + "\n"))
	// CSV shape.
	f.Add([]byte("txconcur-rwset,1,s\n0,0,a,5,d:k:1\n"))
	f.Add([]byte("txconcur-rwset,1,s\n0,0,a,5,d:k:1:extra\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := ReadTrace(bytes.NewReader(data)); err == nil {
			requireExactKeys(t, data)
			roundTripBoth(t, tr)
		}
		if tr, err := ReadTraceCSV(bytes.NewReader(data)); err == nil {
			roundTripBoth(t, tr)
		}
		// The streaming reader must agree with the batch reader: same rows
		// or an error at the same point, and no panic either way.
		streamTrace(data)
	})
}

func roundTripBoth(t *testing.T, tr *Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace on accepted trace: %v", err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("re-read JSONL: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("JSONL round trip changed the trace")
	}
	buf.Reset()
	if err := WriteTraceCSV(&buf, tr); err != nil {
		t.Fatalf("WriteTraceCSV on accepted trace: %v", err)
	}
	back, err = ReadTraceCSV(&buf)
	if err != nil {
		t.Fatalf("re-read CSV: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("CSV round trip changed the trace")
	}
}

// requireExactKeys: every key of an accepted JSONL trace names a field
// exactly. encoding/json matches names case-insensitively, so a decoder
// that leans on it accepts "formAt" as the format, and reads a row holding
// both "sender" and "Sender" as the latter.
func requireExactKeys(t *testing.T, data []byte) {
	t.Helper()
	header := map[string]bool{"format": true, "version": true, "source": true}
	row := map[string]bool{"block": true, "index": true, "sender": true, "ops": true, "cost": true}
	op := map[string]bool{"op": true, "key": true, "value": true}
	check := func(obj map[string]json.RawMessage, allowed map[string]bool) {
		t.Helper()
		for k := range obj {
			if !allowed[k] {
				t.Fatalf("accepted trace has key %q", k)
			}
		}
	}
	first := true
	for _, line := range bytes.Split(data, []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("accepted trace line %q is not an object: %v", line, err)
		}
		if first {
			check(obj, header)
			first = false
			continue
		}
		check(obj, row)
		var ops []map[string]json.RawMessage
		if raw, ok := obj["ops"]; ok {
			if err := json.Unmarshal(raw, &ops); err != nil {
				t.Fatalf("accepted trace ops %q: %v", raw, err)
			}
		}
		for _, o := range ops {
			check(o, op)
		}
	}
}

func streamTrace(data []byte) {
	r, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return
	}
	for {
		if _, err := r.Next(); err != nil {
			if err == io.EOF {
				return
			}
			return
		}
	}
}
