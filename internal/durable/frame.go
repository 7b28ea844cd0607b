package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"unicode/utf8"
)

// The CRC frame is one JSONL line, {"sum":"crc32:<8 hex>","<kind>":<payload>},
// the checksum covering the payload's exact bytes. The campaign and
// service journals and the fabric wire all use it, so a bit flip on the
// wire is caught by the same checksum that catches one on disk.

// Record is one verified frame: its kind key and the exact payload
// bytes the checksum covers.
type Record struct {
	Kind    string
	Payload json.RawMessage
}

// checksum fingerprints a payload for the frame.
func checksum(payload []byte) string {
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(payload))
}

// Frame renders one CRC-framed line, newline included, for payload
// under kind. The kind must be non-empty valid UTF-8 and not "sum".
func Frame(kind string, payload any) ([]byte, error) {
	if kind == "" || kind == "sum" || !utf8.ValidString(kind) {
		return nil, fmt.Errorf("frame: invalid kind %q", kind)
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	key, _ := json.Marshal(kind) // a valid UTF-8 string always marshals
	// Splice the payload under its kind key without re-encoding it:
	// the checksum must cover the exact bytes a reader will see.
	line := fmt.Appendf(nil, `{"sum":%q,%s:`, checksum(body), key)
	line = append(line, body...)
	return append(line, "}\n"...), nil
}

// ParseFrame decodes and checksum-verifies one framed line of any
// kind.
func ParseFrame(line []byte) (Record, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		return Record{}, fmt.Errorf("frame: %w", err)
	}
	sumRaw, ok := fields["sum"]
	if !ok {
		return Record{}, errors.New("frame has no checksum")
	}
	var sum string
	if err := json.Unmarshal(sumRaw, &sum); err != nil {
		return Record{}, fmt.Errorf("frame checksum: %w", err)
	}
	var r Record
	for k, v := range fields {
		if k == "sum" {
			continue
		}
		if r.Kind != "" {
			return Record{}, fmt.Errorf("frame carries both %q and %q", r.Kind, k)
		}
		r = Record{Kind: k, Payload: v}
	}
	if r.Kind == "" {
		return Record{}, errors.New("frame has no payload")
	}
	if got := checksum(r.Payload); got != sum {
		return Record{}, fmt.Errorf("frame %s: checksum %s, recorded %s", r.Kind, got, sum)
	}
	return r, nil
}

// Scan recovers an append-only JSONL file under the torn-tail policy.
// It calls decode on every non-blank line and apply, with the 1-based
// line number, on every line that decodes.
//
// A line that fails to decode is what a crash mid-append leaves
// behind if, and only if, nothing but blank lines follows it: Scan
// then drops it and reports torn. Followed by more content it is
// damage, and Scan fails. An error from apply is always fatal: the
// line was intact, so the fault is in its content.
//
// Errors for a line that does not decode are prefixed "line N: ";
// apply's errors are returned as they are.
func Scan[T any](data []byte, decode func(line []byte) (T, error), apply func(n int, v T) error) (torn bool, err error) {
	var bad error // a line that did not decode, fatal only if content follows
	for i, raw := range bytes.Split(data, []byte("\n")) {
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		if bad != nil {
			return false, bad
		}
		v, err := decode(line)
		if err != nil {
			bad = fmt.Errorf("line %d: %w", i+1, err)
			continue
		}
		if err := apply(i+1, v); err != nil {
			return false, err
		}
	}
	return bad != nil, nil
}
