// Parallel-execution guardrail: measures part of the quick suite
// sequentially and on a GOMAXPROCS-wide pool and, under -update,
// records the speedup in BENCH_parallel.json. On 4+ core machines the
// pool must deliver at least a 2x speedup; below that the hardware
// cannot parallelize enough for the bar to be meaningful, so only the
// measurement is recorded.
package branchscope_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"branchscope/internal/engine"
)

func TestParallelSpeedupGuardrail(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guardrail skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("benchmark guardrail skipped under the race detector")
	}

	// Nine mid-weight experiments, enough work each for scheduling
	// overhead to be invisible. They leave out jpeg and fig4, about 75%
	// of the quick suite's CPU, so this guardrail cannot see a pool that
	// idles behind one long task; TestMapSharesWorkPastLongItem in
	// internal/engine covers that.
	tasks := tasksByID(t, []string{
		"table2", "table3", "mitigations", "predictors", "fsmwidth",
		"btb", "fig5", "smt", "timingchannel",
	})
	cores := runtime.GOMAXPROCS(0)
	run := func(workers int) time.Duration {
		start := time.Now()
		r := &engine.Runner{Pool: engine.NewPool(workers)}
		reports := r.RunSuite(context.Background(), tasks, engine.Config{Quick: true, Seed: 1})
		if n := engine.Failed(reports); n != 0 {
			t.Fatalf("%d experiments failed", n)
		}
		return time.Since(start)
	}

	seq := run(1)
	par := run(cores)
	speedup := float64(seq) / float64(par)
	pass := speedup >= 2 || cores < 4

	report := struct {
		Cores          int     `json:"cores"`
		Experiments    int     `json:"experiments"`
		SequentialSecs float64 `json:"sequential_seconds"`
		ParallelSecs   float64 `json:"parallel_seconds"`
		Speedup        float64 `json:"speedup"`
		MinSpeedup     float64 `json:"min_speedup_on_4plus_cores"`
		Pass           bool    `json:"pass"`
	}{
		Cores:          cores,
		Experiments:    len(tasks),
		SequentialSecs: seq.Seconds(),
		ParallelSecs:   par.Seconds(),
		Speedup:        speedup,
		MinSpeedup:     2,
		Pass:           pass,
	}
	writeBenchReport(t, "BENCH_parallel.json", report)
	t.Logf("sequential %v, parallel %v on %d core(s): speedup %.2fx", seq, par, cores, speedup)
	if !pass {
		t.Errorf("parallel suite speedup %.2fx on %d cores (want >= 2x on 4+ cores)", speedup, cores)
	}
}
