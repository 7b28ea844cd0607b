package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"branchscope/internal/cliutil"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/runstore"
	"branchscope/internal/svc"
)

// svcJobsPerSecond sizes the closed loop: two tenants settle about 35
// small jobs per host second on a 2-core x86 runner, so a 10 s run has
// well over the 100 jobs a p90 with ten samples beyond it needs.
const svcJobsPerSecond = 35

// svcSetups is how many times the service is started; setup_s is the
// median.
const svcSetups = 5

// jobTasks is each job's task list: three quick tasks of roughly 10-30
// ms each, so journal appends, archives and admission weigh as much as
// the simulation.
var jobTasks = []string{"fig2", "poisoning", "detection"}

// svcEvents receives the service's structured log: the "job settled"
// event is how a job is seen to settle (after its archive is written).
// On the traced run it also keeps the per-task and archive events.
type svcEvents struct {
	mu       sync.Mutex
	settled  map[string]chan settleEvent
	traced   bool
	lastTask map[string]time.Time // job -> last "job task done"
	archived map[string]time.Time // job -> "job archived"
}

type settleEvent struct {
	at            time.Time
	state, reason string
}

func newSvcEvents(traced bool) *svcEvents {
	return &svcEvents{
		settled:  map[string]chan settleEvent{},
		traced:   traced,
		lastTask: map[string]time.Time{},
		archived: map[string]time.Time{},
	}
}

// wait returns the channel job's settle event arrives on.
func (h *svcEvents) wait(job string) chan settleEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.settled[job]
	if !ok {
		ch = make(chan settleEvent, 1)
		h.settled[job] = ch
	}
	return ch
}

func (h *svcEvents) Enabled(context.Context, slog.Level) bool { return true }
func (h *svcEvents) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *svcEvents) WithGroup(string) slog.Handler            { return h }

func (h *svcEvents) Handle(_ context.Context, r slog.Record) error {
	switch r.Message {
	case "job settled", "job task done", "job archived":
	default:
		return nil
	}
	var ev settleEvent
	var job string
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "job":
			job = a.Value.String()
		case "state":
			ev.state = a.Value.String()
		case "reason":
			ev.reason = a.Value.String()
		}
		return true
	})
	ev.at = r.Time
	switch r.Message {
	case "job settled":
		h.wait(job) <- ev
	case "job task done":
		if h.traced {
			h.mu.Lock()
			h.lastTask[job] = r.Time
			h.mu.Unlock()
		}
	case "job archived":
		if h.traced {
			h.mu.Lock()
			h.archived[job] = r.Time
			h.mu.Unlock()
		}
	}
	return nil
}

// jobRecord is one closed-loop job as the tenant saw it.
type jobRecord struct {
	tenant           string
	seed             uint64
	status           svc.JobStatus
	submit, admitted time.Time
	settled          settleEvent
}

// svcHost is a started service with its event sink.
type svcHost struct {
	dir, archive string
	service      *svc.Service
	events       *svcEvents
	mu           sync.Mutex
	started      map[uint64]time.Time // job seed -> Isolate (job start)
}

// startService starts a service and settles one warm-up job per tenant
// on it, so the timed loop sees a running service rather than its
// one-time start-up costs.
func startService(dir string, traced bool, seed uint64, tenants int) (*svcHost, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h := &svcHost{dir: dir, archive: filepath.Join(dir, "archive"), service: svc.New(),
		events: newSvcEvents(traced), started: map[uint64]time.Time{}}
	// The same per-job isolation cmd/experiments -service installs; the
	// traced run also stamps the job's start.
	isolate := func(jctx context.Context, sp svc.Spec) context.Context {
		if traced {
			h.mu.Lock()
			h.started[sp.Seed()] = time.Now()
			h.mu.Unlock()
		}
		ov := &experiments.Overrides{Retry: sp.Flags().RetryConfig()}
		if p, err := sp.Flags().ChaosPlan(sp.Seed()); err == nil && p != nil && p.HasEpisodeFaults() {
			ov.Chaos = p
		}
		return experiments.WithOverrides(jctx, ov)
	}
	err := h.service.Start(svc.Config{
		Program:     "experiments",
		Tasks:       experiments.Tasks(experiments.All()),
		Pool:        engine.NewPool(runtime.NumCPU()),
		ArchiveDir:  h.archive,
		JournalPath: filepath.Join(dir, "svc.journal"),
		Isolate:     isolate,
		Log:         slog.New(h.events),
	})
	if err != nil {
		return nil, err
	}
	errs := make(chan error, tenants)
	for ti := 0; ti < tenants; ti++ {
		go func(tenant string) {
			st, err := h.service.Submit(svc.Spec{
				Schema: svc.SpecSchema, Tenant: tenant, Quick: true, Tasks: jobTasks,
				BaseSeed: engine.DeriveSeed(seed, "warm-up", tenant),
			})
			if err == nil {
				if ev := <-h.events.wait(st.ID); ev.state != svc.StateDone || ev.reason != "" {
					err = fmt.Errorf("warm-up job %s: %s %s", st.ID, ev.state, ev.reason)
				}
			}
			errs <- err
		}(fmt.Sprintf("tenant%d", ti))
	}
	var first error
	for ti := 0; ti < tenants; ti++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		h.stop()
		return nil, first
	}
	return h, nil
}

func (h *svcHost) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.service.Drain(ctx)
	h.service.Close()
}

// expectedRunID is the run ID cmd/experiments derives for a job's spec,
// computed here independently of the service.
func expectedRunID(seed uint64) (string, error) {
	cfg, err := cliutil.Flags{}.IdentityConfig(seed)
	if err != nil {
		return "", err
	}
	return runstore.Identity{Program: "experiments", BaseSeed: seed, Quick: true, Tasks: jobTasks, Config: cfg}.RunID(), nil
}

// runService: nproc tenants each submit a small job, wait for it to
// settle, and resubmit.
func runService(o options, tr *tracer) *outcome {
	out := newOutcome()
	tenants := runtime.NumCPU()
	host, err := timeSetup(out, svcSetups, func(rep int) (*svcHost, error) {
		return startService(filepath.Join(o.dir, fmt.Sprint("setup", rep)), tr != nil, o.seed, tenants)
	}, func(h *svcHost) {
		h.stop()
		os.RemoveAll(h.dir)
	})
	if err != nil {
		out.problem("set-up: %v", err)
		return out
	}
	stopped := false
	defer func() {
		if !stopped {
			host.stop()
		}
	}()

	perTenant := (svcJobsPerSecond*o.seconds + tenants - 1) / tenants
	jobs := make([][]jobRecord, tenants)
	var shed, failedSubmits int
	var mu sync.Mutex
	var wg sync.WaitGroup
	ph := startPhase()
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant%d", ti)
			for k := 0; k < perTenant; k++ {
				rec := jobRecord{tenant: tenant, seed: engine.DeriveSeed(o.seed, "job", tenant, fmt.Sprint(k))}
				rec.submit = time.Now()
				st, err := host.service.Submit(svc.Spec{
					Schema: svc.SpecSchema, Tenant: tenant, BaseSeed: rec.seed, Quick: true, Tasks: jobTasks,
				})
				rec.admitted = time.Now()
				if err != nil {
					var se *svc.SubmitError
					mu.Lock()
					if errors.As(err, &se) && se.Code == 429 {
						shed++
					} else {
						failedSubmits++
					}
					mu.Unlock()
					continue
				}
				rec.status = st
				rec.settled = <-host.events.wait(st.ID)
				jobs[ti] = append(jobs[ti], rec)
			}
		}(ti)
	}
	wg.Wait()
	out.endPhase(ph)
	host.stop()
	stopped = true

	var latencies, queue, running []time.Duration
	out.attempted = tenants * perTenant
	out.failed = shed + failedSubmits
	if out.failed > 0 {
		out.problem("%d submissions shed, %d refused", shed, failedSubmits)
	}
	for _, recs := range jobs {
		for _, rec := range recs {
			latencies = append(latencies, rec.settled.at.Sub(rec.submit))
			if rec.settled.state != svc.StateDone || rec.settled.reason != "" {
				out.failed++
				out.problem("job %s (%s): %s %s", rec.status.ID, rec.tenant, rec.settled.state, rec.settled.reason)
			}
			if tr != nil {
				id := rec.status.ID
				start := host.started[rec.seed]
				tr.record("svc.submit", rec.submit, rec.admitted, -1)
				tr.record("svc.queue", rec.admitted, start, -1)
				tr.record("svc.run", start, rec.settled.at, -1)
				tr.record("runstore.write", host.events.lastTask[id], host.events.archived[id], -1)
				queue = append(queue, start.Sub(rec.admitted))
				running = append(running, rec.settled.at.Sub(start))
			}
		}
	}
	checkArchives(out, host.archive, jobs)

	settled := len(latencies)
	out.report["job_latency_p50_s"] = measure{quantile(latencies, 0.5).Seconds(), "s", settled, "submit to settled, archive written"}
	out.report["job_latency_p90_s"] = measure{quantile(latencies, 0.9).Seconds(), "s", settled, ""}
	out.report["jobs_per_s"] = measure{float64(settled) / out.wall.Seconds(), "1/s", settled, fmt.Sprintf("closed loop, %d tenants", tenants)}
	out.layers["svc.shed_ratio"] = measure{float64(shed) / float64(out.attempted), "ratio", out.attempted, ""}
	if tr != nil {
		submit := tr.durations("svc.submit")
		out.layers["svc.submit_ns_p50"] = measure{ns(quantile(submit, 0.5)), "ns", len(submit), ""}
		out.layers["svc.submit_ns_p90"] = measure{ns(quantile(submit, 0.9)), "ns", len(submit), ""}
		out.layers["svc.queue_s_p50"] = measure{quantile(queue, 0.5).Seconds(), "s", len(queue), ""}
		out.layers["svc.run_s_p50"] = measure{quantile(running, 0.5).Seconds(), "s", len(running), ""}
		w := tr.durations("runstore.write")
		out.layers["runstore.write_s"] = measure{quantile(w, 0.5).Seconds(), "s", len(w), "median per job"}
	}
	return out
}

// checkArchives verifies every job's archived manifest carries the run
// ID a direct CLI run of the same spec derives, and folds the archived
// artefact digests into the workload digest in submission order.
func checkArchives(out *outcome, archive string, jobs [][]jobRecord) {
	for _, recs := range jobs {
		for _, rec := range recs {
			want, err := expectedRunID(rec.seed)
			if err != nil {
				out.problem("job %s: %v", rec.status.ID, err)
				continue
			}
			_, m, err := runstore.LoadRun(filepath.Join(archive, rec.tenant, rec.status.RunID))
			if err != nil {
				out.problem("job %s: %v", rec.status.ID, err)
				continue
			}
			if m.RunID != want || rec.status.RunID != want {
				out.problem("job %s: archived run ID %s, submit said %s, spec derives %s", rec.status.ID, m.RunID, rec.status.RunID, want)
			}
			out.hash("job %s %d %s", rec.tenant, rec.seed, m.RunID)
			for _, a := range m.Artifacts {
				out.hash("  %s %s %s", a.Kind, a.Name, a.Digest)
			}
		}
	}
}
