// Suite-level guardrails for the execution engine: the quick experiment
// suite must render byte-identical output at any parallelism level, the
// JSON export must match its golden file key for key, and a panicking
// experiment must be reported in place without taking the suite down.
package branchscope_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"branchscope/internal/engine"
	"branchscope/internal/experiments"
)

var updateGolden = flag.Bool("update", false,
	"rewrite golden files under testdata/ and the BENCH_*.json guardrail reports")

// writeBenchReport writes a guardrail's measurements to path as
// indented JSON, only under -update: a plain `go test ./...` leaves the
// pinned reports in the tree untouched.
func writeBenchReport(t *testing.T, path string, report any) {
	t.Helper()
	if !*updateGolden {
		return
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}

// fastIDs is the subset of experiments cheap enough (~10ms each at quick
// scale) to re-run at several parallelism levels in every test run; the
// full-suite comparison below covers the rest outside -short.
var fastIDs = []string{"fig2", "table1", "fig6", "fig7", "fig9", "montgomery", "slidingwindow"}

func tasksByID(t *testing.T, ids []string) []engine.Task {
	t.Helper()
	var exps []experiments.Experiment
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return experiments.Tasks(exps)
}

// renderSuite runs tasks at the given worker count and returns the
// deterministic text rendering plus the reports.
func renderSuite(tasks []engine.Task, workers int, seed uint64) (string, []engine.Report) {
	r := &engine.Runner{Pool: engine.NewPool(workers)}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: seed})
	var buf bytes.Buffer
	engine.FormatText(&buf, reports)
	return buf.String(), reports
}

// TestSuiteDeterminismFastSubset is the always-on (and race-detector)
// guardrail: a subset of the suite, sequential vs 8 workers, must render
// byte-identically.
func TestSuiteDeterminismFastSubset(t *testing.T) {
	tasks := tasksByID(t, fastIDs)
	seq, seqReports := renderSuite(tasks, 1, 1)
	par, _ := renderSuite(tasks, 8, 1)
	if seq != par {
		t.Errorf("suite output differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if engine.Failed(seqReports) != 0 {
		t.Errorf("%d experiments failed", engine.Failed(seqReports))
	}
}

// TestQuickSuiteDeterministicAcrossParallelism runs the FULL quick suite
// twice — the acceptance criterion behind `cmd/experiments -quick`.
func TestQuickSuiteDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite takes ~25s per parallelism level")
	}
	if raceEnabled {
		t.Skip("full quick suite is too slow under the race detector; the fast subset covers the race check")
	}
	tasks := experiments.Tasks(experiments.All())
	seq, seqReports := renderSuite(tasks, 1, 1)
	par, _ := renderSuite(tasks, 8, 1)
	if seq != par {
		t.Error("full quick suite output differs between -parallel 1 and -parallel 8")
	}
	if n := engine.Failed(seqReports); n != 0 {
		t.Errorf("%d experiments failed:\n%s", n, seq)
	}
}

// TestSuitePanickingExperimentIsolated injects a deliberately panicking
// test-only experiment into a real suite run: it must be reported as that
// experiment's error while every other experiment completes normally.
func TestSuitePanickingExperimentIsolated(t *testing.T) {
	tasks := tasksByID(t, []string{"table1", "fig6"})
	tasks = append(tasks, engine.Task{
		ID: "testpanic", Artifact: "test-only", Description: "always panics",
		Run: func(ctx context.Context, cfg engine.Config) (engine.Result, error) {
			panic("injected suite panic")
		},
	})
	tasks = append(tasks, tasksByID(t, []string{"fig7"})...)

	r := &engine.Runner{Pool: engine.NewPool(4)}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: 1})
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, rep := range reports {
		if rep.Task.ID == "testpanic" {
			if rep.Err == nil || !rep.Panicked {
				t.Errorf("panic not reported as the task's error: %+v", rep)
			}
			continue
		}
		if rep.Err != nil {
			t.Errorf("%s failed alongside the panicking task: %v", rep.Task.ID, rep.Err)
		}
	}
	var buf bytes.Buffer
	engine.FormatText(&buf, reports)
	if !bytes.Contains(buf.Bytes(), []byte("!!! testpanic failed:")) {
		t.Error("rendered suite output does not surface the panic")
	}
}

// TestSuiteJSONGoldenExport pins the -json export byte for byte
// (schema, key order, row shapes) on a small suite at seed 1. Regenerate
// with `go test -run SuiteJSONGolden -update .` after intentional
// changes to experiment rows or the export schema.
func TestSuiteJSONGoldenExport(t *testing.T) {
	tasks := tasksByID(t, []string{"table1", "fig6"})
	r := &engine.Runner{}
	reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: 1})
	for i := range reports {
		reports[i].Wall = 0 // the one nondeterministic export field
	}
	var buf bytes.Buffer
	if err := engine.WriteJSON(&buf, engine.ExportMeta{BaseSeed: 1, Quick: true}, reports); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "suite_export.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON export drifted from %s (run with -update if intentional):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
