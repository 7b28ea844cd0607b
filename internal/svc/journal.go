package svc

import (
	"encoding/json"
	"fmt"
	"os"

	"branchscope/internal/durable"
)

// JournalSchema versions the service journal; bump on incompatible
// change.
const JournalSchema = "branchscope.svc/v1"

// The service journal uses the internal/durable CRC frame with its
// own kinds:
//
//	{"sum":"crc32:...","svc":{"schema":"branchscope.svc/v1"}}  (header)
//	{"sum":"crc32:...","job":{...jobRecord...}}                (submit)
//	{"sum":"crc32:...","start":{"id":"job-000001"}}            (begin)
//	{"sum":"crc32:...","done":{"id":...,"state":...,"reason":...}}
//
// It is a durable.Log: published whole at open, fsynced per append
// (the first append also syncs its directory entry), torn-tail
// tolerant — the restart-recovery contract (queued jobs resume,
// running jobs settle failed with a reason) depends on the submit
// record being durable before the client sees its 201.
const (
	kindHeader = "svc"
	kindJob    = "job"
	kindStart  = "start"
	kindDone   = "done"
)

// jobRecord is the durable submit record.
type jobRecord struct {
	ID    string `json:"id"`
	RunID string `json:"run_id"`
	Spec  Spec   `json:"spec"`
}

// markRecord is the durable start/done record.
type markRecord struct {
	ID     string `json:"id"`
	State  string `json:"state,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// svcHeader is the journal's first line.
type svcHeader struct {
	Schema string `json:"schema"`
}

// journal is the open service journal.
type journal struct{ log *durable.Log }

// recoveredJob is one job reconstructed from the journal.
type recoveredJob struct {
	rec     jobRecord
	started bool
	state   string // settled state, "" when the job never settled
	reason  string
}

// openJournal opens the service journal, creating it if absent, and
// replays it: every intact record is returned in submit order, a torn
// final line is dropped (and reported), and the surviving content is
// republished so the reopened file is clean before new appends land.
func openJournal(path string) (j *journal, jobs []recoveredJob, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, false, fmt.Errorf("svc: reading journal: %w", err)
	}
	// A missing file replays like an empty one: no jobs, header only.
	if jobs, torn, err = replayJournal(data); err != nil {
		return nil, nil, false, err
	}
	buf, err := durable.Frame(kindHeader, svcHeader{Schema: JournalSchema})
	if err != nil {
		return nil, nil, false, fmt.Errorf("svc: encoding journal header: %w", err)
	}
	for _, rj := range jobs {
		if buf, err = appendFrames(buf, rj); err != nil {
			return nil, nil, false, err
		}
	}
	l, err := durable.Create(path, buf)
	if err != nil {
		return nil, nil, false, fmt.Errorf("svc: writing journal: %w", err)
	}
	return &journal{log: l}, jobs, torn, nil
}

// appendFrames re-frames one recovered job's surviving records onto
// buf.
func appendFrames(buf []byte, rj recoveredJob) ([]byte, error) {
	line, err := durable.Frame(kindJob, rj.rec)
	if err != nil {
		return nil, fmt.Errorf("svc: re-encoding job %s: %w", rj.rec.ID, err)
	}
	buf = append(buf, line...)
	if rj.started {
		line, err = durable.Frame(kindStart, markRecord{ID: rj.rec.ID})
		if err != nil {
			return nil, fmt.Errorf("svc: re-encoding start %s: %w", rj.rec.ID, err)
		}
		buf = append(buf, line...)
	}
	if rj.state != "" {
		line, err = durable.Frame(kindDone, markRecord{ID: rj.rec.ID, State: rj.state, Reason: rj.reason})
		if err != nil {
			return nil, fmt.Errorf("svc: re-encoding done %s: %w", rj.rec.ID, err)
		}
		buf = append(buf, line...)
	}
	return buf, nil
}

// replayJournal folds the journal lines into per-job recovery state.
// The header must come first and only once. A torn final line is
// dropped and reported; a corrupt line anywhere earlier is real damage
// and fails the load, matching campaign.Load. Empty data replays as a
// journal with no jobs.
func replayJournal(data []byte) ([]recoveredJob, bool, error) {
	var jobs []recoveredJob
	byID := map[string]int{} // index into jobs, which appends reallocate
	sawHeader := false
	torn, err := durable.Scan(data, durable.ParseFrame, func(n int, r durable.Record) error {
		if r.Kind != kindHeader && !sawHeader {
			return fmt.Errorf("line %d: %s record before header", n, r.Kind)
		}
		switch r.Kind {
		case kindHeader:
			if sawHeader {
				return fmt.Errorf("line %d: duplicate header", n)
			}
			var h svcHeader
			if err := json.Unmarshal(r.Payload, &h); err != nil {
				return fmt.Errorf("line %d: bad header: %w", n, err)
			}
			if h.Schema != JournalSchema {
				return fmt.Errorf("schema %q, want %q", h.Schema, JournalSchema)
			}
			sawHeader = true
		case kindJob:
			var rec jobRecord
			if err := json.Unmarshal(r.Payload, &rec); err != nil {
				return fmt.Errorf("line %d: bad job record: %w", n, err)
			}
			byID[rec.ID] = len(jobs)
			jobs = append(jobs, recoveredJob{rec: rec})
		case kindStart, kindDone:
			var m markRecord
			if err := json.Unmarshal(r.Payload, &m); err != nil {
				return fmt.Errorf("line %d: bad %s record: %w", n, r.Kind, err)
			}
			i, ok := byID[m.ID]
			if !ok {
				return nil // a mark for a job the journal never submitted
			}
			if r.Kind == kindStart {
				jobs[i].started = true
			} else {
				jobs[i].state, jobs[i].reason = m.State, m.Reason
			}
		default:
			return fmt.Errorf("line %d: unknown kind %q", n, r.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("svc: journal %w", err)
	}
	return jobs, torn, nil
}

// append frames and fsyncs one record. Nil-safe: a service without a
// journal path runs in-memory only.
func (j *journal) append(kind string, payload any) error {
	if j == nil {
		return nil
	}
	line, err := durable.Frame(kind, payload)
	if err != nil {
		return fmt.Errorf("svc: encoding %s record: %w", kind, err)
	}
	if _, err := j.log.Append(line); err != nil {
		return fmt.Errorf("svc: appending %s record: %w", kind, err)
	}
	return nil
}

// close closes the journal file. Nil-safe.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}
