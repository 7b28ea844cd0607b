package main

import (
	"fmt"
	"time"

	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/leakage"
	"branchscope/internal/noise"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// covertBitsPerSecond sizes each cell's secret: five cells read at
// roughly 9k decided bits per host second on a 2-core x86 runner.
const covertBitsPerSecond = 1600

// covertSetups is how many times the cells are built; setup_s is the
// median.
const covertSetups = 5

// covertCell is one measured configuration. paper is the paper's
// Table 2 Random error rate for the model and setting; band is the
// highest bit error rate the check accepts: the resilient read must do
// no worse than the paper's single-episode channel (for rdtscp probing,
// than EXPERIMENTS.md's single-shot timing channel, 6.45%).
type covertCell struct {
	model  uarch.Model
	noisy  bool
	timing bool
	paper  float64
	band   float64
}

func (c covertCell) String() string {
	setting, probe := "isolated", "pmc"
	if c.noisy {
		setting = "noisy"
	}
	if c.timing {
		probe = "rdtscp"
	}
	return c.model.Name + "/" + setting + "/" + probe
}

func covertCells() []covertCell {
	return []covertCell{
		{model: uarch.Skylake(), paper: 0.0063, band: 0.0063},
		{model: uarch.Haswell(), paper: 0.0046, band: 0.0046},
		{model: uarch.SandyBridge(), paper: 0.0244, band: 0.0244},
		{model: uarch.Skylake(), noisy: true, paper: 0.0074, band: 0.0074},
		{model: uarch.Skylake(), timing: true, paper: 0.0063, band: 0.0645},
	}
}

// covertRun is one cell ready to read: a booted system with the
// retransmission-capable Listing 2 sender looping over a random secret,
// the setting's background noise, and a resilient session whose
// pre-attack search and (rdtscp) calibration are done.
type covertRun struct {
	cell          covertCell
	sys           *sched.System
	secret        []bool
	cursor        int
	victim        *sched.Thread
	noise         *sched.Thread
	spy           *cpu.Context
	sess          *core.Session
	before, after func()
	win           leakage.Estimator
	clock         *episodeClock
}

// episodeClock turns the session's public hooks into prime, step and
// probe spans: before fires after prime, after fires after the victim
// step, EpisodeHook fires after probe. The setting's noise process runs
// inside before and after; its steps are spans of their own, so
// sched.step covers only the victim step and its goroutine hand-off.
type episodeClock struct {
	tr        *tracer
	parent    int
	last      time.Time // end of the previous stage
	primed    int       // prime spans recorded
	blockSize int
}

func (c *episodeClock) stage(name string) {
	now := time.Now()
	c.tr.record(name, c.last, now, c.parent)
	c.last = now
}

func (r *covertRun) kill() {
	r.victim.Kill()
	if r.noise != nil {
		r.noise.Kill()
	}
}

func killAll(runs []*covertRun) {
	for _, r := range runs {
		r.kill()
	}
}

func newCovertRun(cell covertCell, seed uint64, bits int, tr *tracer) (*covertRun, error) {
	r := rng.New(seed)
	run := &covertRun{cell: cell, sys: sched.NewSystem(cell.model, r.Uint64())}
	run.secret = make([]bool, bits)
	for i := range run.secret {
		run.secret[i] = r.Bool()
	}
	run.victim = run.sys.Spawn("sender", victims.HeldBitSender(run.secret, 0, &run.cursor))
	budget := cell.model.NoiseIsolatedBranches
	if cell.noisy {
		budget = cell.model.NoiseNoisyBranches
	}
	if budget > 0 {
		run.noise = run.sys.Spawn("noise", noise.Process(r.Uint64(), noise.DefaultRegion, 1<<22))
		half := budget / 2
		run.before = func() { run.noise.Step(half) }
		run.after = func() { run.noise.Step(budget - half) }
	}
	run.spy = run.sys.NewProcess("spy")
	cfg := core.AttackConfig{
		Search:    core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
		UseTiming: cell.timing,
		Retry:     core.RetryConfig{MaxAttempts: 3},
	}
	if tr != nil {
		clk := &episodeClock{tr: tr}
		run.clock = clk
		cfg.EpisodeHook = func(core.EpisodeObservation) { clk.stage("core.probe") }
		noiseBefore, noiseAfter := run.before, run.after
		noiseStep := func(step func()) {
			if step != nil {
				step()
				clk.stage("noise.step")
			}
		}
		run.before = func() {
			clk.stage("core.prime")
			clk.primed++
			noiseStep(noiseBefore)
		}
		run.after = func() {
			clk.stage("sched.step")
			noiseStep(noiseAfter)
		}
	}
	t0 := time.Now()
	sess, err := core.NewSession(run.spy, r.Split(), cfg)
	tr.record("core.session_setup", t0, time.Now(), -1)
	if err != nil {
		run.kill()
		return nil, fmt.Errorf("%s: session: %w", cell, err)
	}
	run.sess = sess
	if run.clock != nil {
		run.clock.blockSize = sess.Block().Len()
	}
	return run, nil
}

// covertCounts are the cell's simulated work counters.
type covertCounts struct{ branches, cycles, commits, mispredicts uint64 }

func (r *covertRun) counts() covertCounts {
	c := covertCounts{cycles: r.sys.Core().Clock()}
	for _, ctx := range []*cpu.Context{r.spy, r.victim.Context()} {
		c.branches += ctx.ReadPMC(cpu.BranchInstructions)
	}
	if r.noise != nil {
		c.branches += r.noise.Context().ReadPMC(cpu.BranchInstructions)
	}
	in := r.sys.Core().BPU().Introspect()
	c.commits, c.mispredicts = in.Commits, in.Mispredicts
	return c
}

// runCovert: steady-state bit reading with the resilient ReadBit
// (three-episode budget) on every cell, one after another in one
// goroutine, the way `branchscope -bits N` runs.
func runCovert(o options, tr *tracer) *outcome {
	out := newOutcome()
	cells := covertCells()
	bits := covertBitsPerSecond * o.seconds
	runs, err := timeSetup(out, covertSetups, func(rep int) ([]*covertRun, error) {
		var runs []*covertRun
		for _, cell := range cells {
			seed := engine.DeriveSeed(o.seed, "covert", cell.String(), fmt.Sprint(rep))
			run, err := newCovertRun(cell, seed, bits, tr)
			if err != nil {
				killAll(runs)
				return nil, err
			}
			runs = append(runs, run)
		}
		return runs, nil
	}, killAll)
	if err != nil {
		out.problem("set-up: %v", err)
		return out
	}
	defer killAll(runs)

	startCounts := make([]covertCounts, len(runs))
	for i, r := range runs {
		startCounts[i] = r.counts()
	}
	var episodes, unknown, decided int
	errSum := make([]float64, len(runs))
	got := make([][]byte, len(runs))
	for i := range got {
		got[i] = make([]byte, bits)
	}
	ph := startPhase()
	for i, r := range runs {
		for b := 0; b < bits; b++ {
			r.cursor = b
			var rd core.Reading
			if tr == nil {
				rd = r.sess.ReadBit(r.victim, r.before, r.after)
				r.win.Observe(r.secret[b], rd.Bit, rd.Known)
			} else {
				start := time.Now()
				r.clock.parent = tr.open("core.readbit", start, -1)
				r.clock.last = start
				rd = r.sess.ReadBit(r.victim, r.before, r.after)
				end := time.Now()
				tr.close(r.clock.parent, end)
				r.win.Observe(r.secret[b], rd.Bit, rd.Known)
				tr.record("leakage.observe", end, time.Now(), r.clock.parent)
			}
			episodes += rd.Attempts
			switch {
			case !rd.Known:
				unknown++
				errSum[i] += 0.5
				got[i][b] = '?'
			case rd.Bit != r.secret[b]:
				errSum[i]++
			}
			if rd.Known {
				decided++
				got[i][b] = '0'
				if rd.Bit {
					got[i][b] = '1'
				}
			}
		}
	}
	out.endPhase(ph)

	var total covertCounts
	for i, r := range runs {
		c := r.counts()
		total.branches += c.branches - startCounts[i].branches
		total.cycles += c.cycles - startCounts[i].cycles
		total.commits += c.commits - startCounts[i].commits
		total.mispredicts += c.mispredicts - startCounts[i].mispredicts
		ber := errSum[i] / float64(bits)
		lk := r.win.Report()
		out.notes = append(out.notes, fmt.Sprintf("bit_error_rate %-26s %.5f ratio n=%d paper_table2_random=%.4f band=[0,%.4f] mi_bits=%.4f",
			r.cell, ber, bits, r.cell.paper, r.cell.band, lk.MutualInformationBits))
		if ber > r.cell.band {
			out.problem("%s bit error rate %.5f outside band [0, %.4f]", r.cell, ber, r.cell.band)
		}
		an := r.sess.Analysis()
		out.hash("cell %s block %s tt=%s/%.4f nn=%s/%.4f cycles=%d branches=%d recal=%d",
			r.cell, r.sess.Block(), an.PatTT, an.FreqTT, an.PatNN, an.FreqNN, c.cycles, c.branches, r.sess.Recalibrations())
		out.hash("bits %s", got[i])
	}
	n := bits * len(runs)
	out.attempted = n
	out.report["bits_per_s"] = measure{float64(decided) / out.wall.Seconds(), "bit/s", decided, "decided bits per host second"}
	var errs float64
	for _, e := range errSum {
		errs += e
	}
	out.report["bit_error_rate"] = measure{errs / float64(n), "ratio", n, "all cells; per cell below"}
	out.report["sim_branches_per_s"] = measure{float64(total.branches) / out.wall.Seconds(), "1/s", int(total.branches), "simulated branches retired per host second"}
	out.report["failed_ratio"] = measure{float64(unknown) / float64(n), "ratio", n, "unknown bits"}

	if tr != nil {
		prime := tr.durations("core.prime")
		out.layers["core.prime_ns_p50"] = measure{ns(quantile(prime, 0.5)), "ns", len(prime), ""}
		var primed int
		for _, r := range runs {
			primed += r.clock.primed * r.clock.blockSize
		}
		out.layers["core.prime_ns_per_branch"] = measure{ns(sum(prime)) / float64(primed), "ns", primed, ""}
		step := tr.durations("sched.step")
		out.layers["sched.step_ns_p50"] = measure{ns(quantile(step, 0.5)), "ns", len(step), ""}
		noiseSteps := tr.durations("noise.step")
		out.layers["noise.step_ns_p50"] = measure{ns(quantile(noiseSteps, 0.5)), "ns", len(noiseSteps), "both halves of each episode's noise"}
		probe := tr.durations("core.probe")
		out.layers["core.probe_ns_p50"] = measure{ns(quantile(probe, 0.5)), "ns", len(probe), ""}
		rb := tr.durations("core.readbit")
		out.layers["core.readbit_ns_p50"] = measure{ns(quantile(rb, 0.5)), "ns", len(rb), ""}
		out.layers["core.readbit_ns_p90"] = measure{ns(quantile(rb, 0.9)), "ns", len(rb), ""}
		obs := tr.durations("leakage.observe")
		out.layers["leakage.observe_ns_p50"] = measure{ns(quantile(obs, 0.5)), "ns", len(obs), ""}
		// One set-up builds every cell's session; take the median set-up.
		var perSetup []time.Duration
		for i, d := range tr.durations("core.session_setup") {
			if i%len(cells) == 0 {
				perSetup = append(perSetup, 0)
			}
			perSetup[len(perSetup)-1] += d
		}
		out.layers["core.session_setup_s"] = measure{quantile(perSetup, 0.5).Seconds(), "s", len(perSetup), ""}
	}
	out.layers["core.episodes_per_bit"] = measure{float64(episodes) / float64(n), "ratio", n, ""}
	out.layers["core.episodes"] = measure{float64(episodes), "count", 1, ""}
	workCounts(out, total.branches, total.cycles, total.commits, total.mispredicts)
	return out
}

// workCounts records the deterministic simulated-work counters.
func workCounts(out *outcome, branches, cycles, commits, mispredicts uint64) {
	out.layers["cpu.sim_branches"] = measure{float64(branches), "count", 1, ""}
	out.layers["cpu.sim_cycles"] = measure{float64(cycles), "count", 1, ""}
	out.layers["bpu.commits"] = measure{float64(commits), "count", 1, ""}
	out.layers["bpu.mispredicts"] = measure{float64(mispredicts), "count", 1, ""}
	out.hash("work branches=%d cycles=%d commits=%d mispredicts=%d", branches, cycles, commits, mispredicts)
}
