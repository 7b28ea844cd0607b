package durable_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"branchscope/internal/durable"
)

// TestFrameBytes pins the frame's exact bytes: journals, service
// journals and the fabric wire written by earlier builds must still
// parse, and new ones must match them byte for byte.
func TestFrameBytes(t *testing.T) {
	line, err := durable.Frame("task", map[string]string{"id": "a<b"})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"id":"a\u003cb"}` // json.Marshal's HTML escaping is part of the format
	want := fmt.Sprintf(`{"sum":"crc32:%08x","task":%s}`+"\n", crc32.ChecksumIEEE([]byte(body)), body)
	if string(line) != want {
		t.Errorf("frame\n got %s\nwant %s", line, want)
	}
	for _, kind := range []string{"", "sum", "\xff"} {
		if _, err := durable.Frame(kind, 1); err == nil {
			t.Errorf("Frame accepted kind %q", kind)
		}
	}
}

// FuzzParseFrame: ParseFrame must not panic on any line, must return
// exactly the kind and payload bytes Frame wrote, and must accept only
// frames whose checksum matches their payload.
func FuzzParseFrame(f *testing.F) {
	for _, kind := range []string{"header", "task", "lease", "svc", "job", "start", "done"} {
		line, err := durable.Frame(kind, map[string]any{"id": "fig6", "rows": []int{1, 2}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, `{"id":"fig6"}`, line)
	}
	f.Add("task", `"text with \n newline"`, []byte(`{"sum":"crc32:00000000","task":1}`))
	f.Add("x", `[1, 2 ,3]`, []byte(`{"sum":"crc32:00000000","a":1,"b":2}`))
	f.Fuzz(func(t *testing.T, kind, payload string, line []byte) {
		if r, err := durable.ParseFrame(line); err == nil {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(line, &fields); err != nil {
				t.Fatalf("accepted a line that is not a JSON object: %v", err)
			}
			var sum string
			if err := json.Unmarshal(fields["sum"], &sum); err != nil {
				t.Fatalf("accepted a frame without a string checksum: %v", err)
			}
			if want := fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(r.Payload)); sum != want {
				t.Fatalf("accepted checksum %s over a payload whose checksum is %s", sum, want)
			}
			if !bytes.Equal(fields[r.Kind], r.Payload) {
				t.Fatalf("payload %q is not the line's %q value", r.Payload, r.Kind)
			}
		}

		for _, p := range []any{payload, json.RawMessage(payload)} {
			line, err := durable.Frame(kind, p)
			if err != nil {
				continue // an invalid kind, or a raw payload that is not JSON
			}
			body, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("Frame encoded a payload json.Marshal rejects: %v", err)
			}
			if bytes.Count(line, []byte("\n")) != 1 || line[len(line)-1] != '\n' {
				t.Fatalf("frame is not one line: %q", line)
			}
			r, err := durable.ParseFrame(line)
			if err != nil {
				t.Fatalf("ParseFrame(Frame(%q, %q)): %v", kind, payload, err)
			}
			if r.Kind != kind || !bytes.Equal(r.Payload, body) {
				t.Fatalf("ParseFrame(Frame(%q, %q)) = %q %q, want %q %q", kind, payload, r.Kind, r.Payload, kind, body)
			}
		}
	})
}
