package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"branchscope/internal/campaign"
	"branchscope/internal/cliutil"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/runstore"
)

// suiteSeed is the suite's base seed, the CLI default. The suite is
// the one workload whose inputs do not follow --seed: its work is set
// by how many candidate blocks jpeg's sixteen-target search needs,
// which varies ninefold across seeds (1.8-16 s), so a seeded suite
// would measure search luck rather than speed. Every run therefore
// regenerates the same paper artefacts, as users do.
const suiteSeed = 1

// suiteSetups is how many times the campaign is set up; setup_s is the
// median. Set-up is one journal fsync, so it takes many repetitions for
// the median to settle.
const suiteSetups = 51

// suiteRun is a campaign ready to run: the journal, the archiver and
// the runner on an nproc-worker pool, as `experiments -quick
// -checkpoint J -archive A -parallel $(nproc)` sets them up.
type suiteRun struct {
	dir      string
	camp     *campaign.Campaign
	arc      *runstore.Archiver
	runner   *engine.Runner
	tasks    []engine.Task
	identity runstore.Identity
}

func newSuiteRun(dir string, tr *tracer, starts, dones *taskClock) (*suiteRun, error) {
	tasks := experiments.Tasks(experiments.All())
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	idCfg, err := cliutil.Flags{}.IdentityConfig(suiteSeed)
	if err != nil {
		return nil, err
	}
	identity := runstore.Identity{Program: "experiments", BaseSeed: suiteSeed, Quick: true, Tasks: ids, Config: idCfg}
	runID := identity.RunID()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, "journal")
	camp, err := campaign.New(journal, campaign.Header{
		Program: "experiments", BaseSeed: suiteSeed, Quick: true, Tasks: ids, RunID: runID,
	})
	if err != nil {
		return nil, err
	}
	arc := runstore.New(filepath.Join(dir, "archive"), identity)
	arc.AddFile("journal", journal)
	runner := &engine.Runner{Pool: engine.NewPool(runtime.NumCPU()), RunID: runID}
	if tr != nil {
		runner.OnStart = func(t engine.Task, _ uint64) { starts.mark(t.ID) }
		runner.OnDone = func(rep engine.Report) { dones.mark(rep.Task.ID) }
	}
	return &suiteRun{dir: dir, camp: camp, arc: arc, runner: runner, tasks: tasks, identity: identity}, nil
}

func (s *suiteRun) close() {
	s.camp.Journal.Close()
	os.RemoveAll(s.dir)
}

// taskClock records when each task crossed a runner hook.
type taskClock struct {
	mu sync.Mutex
	at map[string]time.Time
}

func newTaskClock() *taskClock { return &taskClock{at: map[string]time.Time{}} }

func (c *taskClock) mark(id string) {
	now := time.Now()
	c.mu.Lock()
	c.at[id] = now
	c.mu.Unlock()
}

// runSuite: the full quick suite through campaign.Run with a checkpoint
// journal and a run archive, on an engine pool of nproc workers.
func runSuite(o options, tr *tracer) *outcome {
	out := newOutcome()
	starts, dones := newTaskClock(), newTaskClock()
	s, err := timeSetup(out, suiteSetups, func(rep int) (*suiteRun, error) {
		return newSuiteRun(filepath.Join(o.dir, fmt.Sprint("setup", rep)), tr, starts, dones)
	}, (*suiteRun).close)
	if err != nil {
		out.problem("set-up: %v", err)
		return out
	}
	defer s.close()

	ph := startPhase()
	t0 := ph.start
	reports, err := s.camp.Run(context.Background(), s.runner, s.tasks, engine.Config{Quick: true, Seed: suiteSeed})
	t1 := time.Now()
	if err != nil {
		out.problem("campaign journal: %v", err)
	}
	// Archive exactly as cmd/experiments does: outcomes, then the
	// report and export rendered over wall-zeroed reports.
	walls := make([]time.Duration, len(reports))
	for i := range reports {
		walls[i] = reports[i].Wall
		reports[i].Wall = 0
	}
	for _, rep := range reports {
		to := runstore.TaskOutcome{ID: rep.Task.ID, Seed: rep.Seed, Outcome: rep.Outcome(), Attempts: rep.Attempts}
		if rep.Err != nil {
			to.Error = rep.Err.Error()
		}
		s.arc.Record(to)
	}
	var report, export bytes.Buffer
	engine.FormatText(&report, reports)
	s.arc.AddBlob("report", report.Bytes())
	if err := engine.WriteJSON(&export, engine.ExportMeta{BaseSeed: suiteSeed, Quick: true, RunID: s.identity.RunID()}, reports); err != nil {
		out.problem("rendering export: %v", err)
	}
	s.arc.AddBlob("export", export.Bytes())
	t2 := time.Now()
	if _, err := s.arc.Write(); err != nil {
		out.problem("archive: %v", err)
	}
	t3 := time.Now()
	out.endPhase(ph)

	critical, criticalID := time.Duration(0), ""
	for i, rep := range reports {
		out.attempted++
		if rep.Outcome() != "ok" {
			out.failed++
			out.problem("task %s: outcome %s: %v", rep.Task.ID, rep.Outcome(), rep.Err)
		}
		if walls[i] > critical {
			critical, criticalID = walls[i], rep.Task.ID
		}
	}
	out.hash("export %s", export.Bytes())
	out.report["critical_task_s"] = measure{critical.Seconds(), "s", len(reports), "task " + criticalID}
	out.report["task_wall_sum_s"] = measure{sum(walls).Seconds(), "s", len(reports), ""}

	if tr != nil {
		campSpan := tr.record("campaign.run", t0, t1, -1)
		var taskSpans []span
		var waitMax time.Duration
		for _, t := range s.tasks {
			st, dn := starts.at[t.ID], dones.at[t.ID]
			tr.record("engine.wait."+t.ID, t0, st, campSpan)
			tr.record("experiments."+t.ID, st, dn, campSpan)
			taskSpans = append(taskSpans, span{start: st.Sub(tr.origin), end: dn.Sub(tr.origin)})
			waitMax = max(waitMax, st.Sub(t0))
		}
		tr.record("runstore.write", t2, t3, -1)
		for _, id := range []string{"jpeg", "fig4", "table2"} {
			d := tr.durations("experiments." + id)
			out.layers["experiments."+id+"_s"] = measure{sum(d).Seconds(), "s", len(d), ""}
		}
		out.layers["engine.task_wait_s_max"] = measure{waitMax.Seconds(), "s", len(s.tasks), ""}
		workers := s.runner.Pool.Workers()
		busy := sum(walls)
		out.layers["engine.worker_idle_s"] = measure{(time.Duration(workers)*t1.Sub(t0) - busy).Seconds(), "s", workers, ""}
		self := t1.Sub(t0) - covered(taskSpans, t0.Sub(tr.origin), t1.Sub(tr.origin))
		out.layers["campaign.self_s"] = measure{self.Seconds(), "s", 1, ""}
		out.layers["runstore.write_s"] = measure{t3.Sub(t2).Seconds(), "s", 1, ""}
	}
	return out
}
