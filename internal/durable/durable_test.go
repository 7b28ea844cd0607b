package durable_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/durable"
	"branchscope/internal/engine"
	"branchscope/internal/obs"
	"branchscope/internal/svc"
)

func TestWriteFileReplacesWithoutLeftovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, content := range []string{"first\n", "second, longer\n", ""} {
		if err := durable.WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("content %q err %v, want %q", got, err, content)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the file (temp files leaked)", len(entries))
	}
}

func TestLogCreateAppendClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("stale content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := durable.Create(path, []byte("head\n"))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range []string{"a\n", "b\n"} {
		n, err := l.Append([]byte(rec))
		if err != nil || n != i+1 {
			t.Fatalf("append %d: n=%d err=%v", i, n, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "head\na\nb\n" {
		t.Errorf("log content %q", got)
	}
	if _, err := l.Append([]byte("c\n")); err == nil {
		t.Error("append after Close succeeded")
	}
}

// recovered is what a format's restart path made of one file: a key
// per recovered record line, in order, and whether it dropped a torn
// final line.
type recovered struct {
	keys []string
	torn bool
}

// format is one durable file kind: a real file its owning package
// writes, and that package's own recovery path.
type format struct {
	name string
	// headerLines counts the leading lines that carry no record key.
	headerLines int
	// tornHeaderFails: a cut inside the header must fail the load. The
	// campaign journal needs an intact header, and durable.Create
	// publishes it whole, so no crash leaves such a file behind.
	tornHeaderFails bool
	// checksummed: a flipped byte in a non-final line must fail the
	// load. Ledger lines carry no checksum; a flip inside a string
	// value still parses.
	checksummed bool
	// write produces the file at path and returns each record line's
	// key, in order.
	write   func(t *testing.T, path string) []string
	recover func(path string) (recovered, error)
}

var formats = []format{
	{
		name: "campaign", headerLines: 1, tornHeaderFails: true, checksummed: true,
		write: func(t *testing.T, path string) []string {
			ids := []string{"a", "b", "c"}
			camp, err := campaign.New(path, campaign.Header{Program: "sweep", BaseSeed: 1, Tasks: ids})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				rec := campaign.TaskRecord{ID: id, Seed: 7, Outcome: "ok", ResultText: "result " + id + "\n"}
				if _, err := camp.Journal.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := camp.Journal.Close(); err != nil {
				t.Fatal(err)
			}
			return ids
		},
		recover: func(path string) (recovered, error) {
			_, recs, torn, err := campaign.Load(path)
			r := recovered{torn: torn}
			for _, rec := range recs {
				r.keys = append(r.keys, rec.ID)
			}
			return r, err
		},
	},
	{
		name: "svc", headerLines: 1, checksummed: true,
		write: writeServiceJournal,
		// A restarted service with no tasks registered: a job whose
		// submit survived alone fails to resolve, one whose start
		// survived settles failed as interrupted, and one whose done
		// survived keeps its state — so each job's state names its
		// surviving records, and no job runs.
		recover: func(path string) (recovered, error) {
			var log bytes.Buffer
			s := svc.New()
			if err := s.Start(svc.Config{Program: "experiments", JournalPath: path, Log: slog.New(slog.NewTextHandler(&log, nil))}); err != nil {
				return recovered{}, err
			}
			defer s.Close()
			var r recovered
			for _, st := range s.List("") {
				r.keys = append(r.keys, st.ID+" job")
				switch {
				case st.State == svc.StateDone:
					r.keys = append(r.keys, st.ID+" start", st.ID+" done")
				case strings.Contains(st.Reason, "restarted"):
					r.keys = append(r.keys, st.ID+" start")
				}
			}
			r.torn = strings.Contains(log.String(), "torn final record")
			return r, nil
		},
	},
	{
		name: "ledger", checksummed: false,
		write: func(t *testing.T, path string) []string {
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			l := obs.NewLedger(f)
			ids := []string{"a", "b", "c"}
			for i, id := range ids {
				rec := obs.LedgerRecord{Program: "sweep", ID: id, BaseSeed: 1, Seed: uint64(i), Outcome: "ok", ResultDigest: obs.Digest(id)}
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			return ids
		},
		// ReadLedger's view, and then the restart path's: repair the tail
		// before reopening for append, after which the file must read
		// back the same records, clean.
		recover: func(path string) (recovered, error) {
			r, err := readLedgerFile(path)
			if err != nil {
				return recovered{}, err
			}
			repaired, err := obs.RepairLedgerTail(path)
			if err != nil {
				return recovered{}, err
			}
			after, err := readLedgerFile(path)
			if err != nil {
				return recovered{}, err
			}
			if repaired != r.torn || after.torn || !slices.Equal(after.keys, r.keys) {
				return recovered{}, fmt.Errorf("repair (torn=%v) left %q torn=%v, read %q before", repaired, after.keys, after.torn, r.keys)
			}
			return r, nil
		},
	},
}

func readLedgerFile(path string) (recovered, error) {
	f, err := os.Open(path)
	if err != nil {
		return recovered{}, err
	}
	defer f.Close()
	recs, torn, err := obs.ReadLedger(f)
	r := recovered{torn: torn}
	for _, rec := range recs {
		r.keys = append(r.keys, rec.ID)
	}
	return r, err
}

// writeServiceJournal journals two jobs that each run to completion.
func writeServiceJournal(t *testing.T, path string) []string {
	task := engine.Task{
		ID: "alpha", Artifact: "table", Description: "sweep task",
		Run: func(context.Context, engine.Config) (engine.Result, error) { return okResult{}, nil },
	}
	s := svc.New()
	if err := s.Start(svc.Config{Program: "experiments", Tasks: []engine.Task{task}, JournalPath: path}); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 2; i++ {
		st, err := s.Submit(svc.Spec{Schema: svc.SpecSchema, Tenant: "alice", Tasks: []string{"alpha"}})
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); st.State != svc.StateDone; time.Sleep(time.Millisecond) {
			if st, err = s.Get(st.ID); err != nil || time.Now().After(deadline) {
				t.Fatalf("job %s: state %q err %v", st.ID, st.State, err)
			}
		}
		keys = append(keys, st.ID+" job", st.ID+" start", st.ID+" done")
	}
	s.Drain(context.Background())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

type okResult struct{}

func (okResult) String() string     { return "ok\n" }
func (okResult) Rows() []engine.Row { return nil }

// span is one line's content, newline excluded.
type span struct{ start, end int }

func lineSpans(data []byte) []span {
	var spans []span
	for start := 0; start < len(data); {
		end := bytes.IndexByte(data[start:], '\n')
		if end < 0 {
			end = len(data) - start
		}
		spans = append(spans, span{start, start + end})
		start += end + 1
	}
	return spans
}

// TestTornWriteSweep cuts each durable file at every byte offset — a
// crash mid-append at every point — and runs the owning package's
// recovery. It must return an in-order prefix of the records, flag
// torn exactly when the cut falls inside a line, and not fail (except
// inside a campaign header, see tornHeaderFails); trailing blank lines
// change nothing. Damage to a non-final line must fail the load: a
// tear with content after it, and in a checksummed file any flipped
// byte.
func TestTornWriteSweep(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join(dir, "written")
			keys := f.write(t, src)
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			lines := lineSpans(data)
			if len(lines) != f.headerLines+len(keys) {
				t.Fatalf("%d lines for %d header lines and %d records", len(lines), f.headerLines, len(keys))
			}
			path := filepath.Join(dir, "crashed")
			load := func(content []byte) (recovered, error) {
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
				return f.recover(path)
			}

			for cut := 0; cut <= len(data); cut++ {
				complete, inside := 0, false
				for _, sp := range lines {
					if sp.end <= cut {
						complete++
					} else if sp.start < cut {
						inside = true
					}
				}
				for _, suffix := range []string{"", "\n\n"} {
					got, err := load(append(data[:cut:cut], suffix...))
					if complete < f.headerLines && f.tornHeaderFails {
						if err == nil {
							t.Errorf("cut %d%q inside the header loaded", cut, suffix)
						}
						continue
					}
					if err != nil {
						t.Fatalf("cut %d%q: %v", cut, suffix, err)
					}
					want := keys[:max(0, complete-f.headerLines)]
					if !slices.Equal(got.keys, want) {
						t.Fatalf("cut %d%q: recovered %q, want %q", cut, suffix, got.keys, want)
					}
					if got.torn != inside {
						t.Fatalf("cut %d%q: torn=%v, want %v", cut, suffix, got.torn, inside)
					}
				}
			}

			for i, sp := range lines[:len(lines)-1] {
				for k := sp.start + 1; k < sp.end; k++ {
					damaged := append(append([]byte{}, data[:k]...), data[sp.end:]...)
					if _, err := load(damaged); err == nil {
						t.Fatalf("line %d torn at byte %d with content after it loaded", i+1, k-sp.start)
					}
				}
				if !f.checksummed {
					continue
				}
				for k := sp.start; k < sp.end; k++ {
					flipped := append([]byte{}, data...)
					flipped[k] ^= 0x01
					if _, err := load(flipped); err == nil {
						t.Fatalf("line %d with byte %d flipped (%q) loaded", i+1, k-sp.start, flipped[sp.start:sp.end])
					}
				}
			}
		})
	}
}
