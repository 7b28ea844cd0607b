package main

import (
	"fmt"
	"time"

	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/noise"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// searchRoundsPerTenSeconds sizes the timed phase: one round takes
// about 0.28 host seconds on a 2-core x86-64 VM. Each round's candidate
// count is luck, so the phase runs many rounds to average it out.
const searchRoundsPerTenSeconds = 35

// searchSetups is how many times the round systems are booted; setup_s
// is the median.
const searchSetups = 5

// fig4BlocksPerRound is the fig4-style sweep's share of a round. Unlike
// the searches it analyses a fixed number of blocks.
const fig4BlocksPerRound = 2

// multiTargets are six of the jpeg attack's column-check branches. The
// full sixteen-target search is measured by the suite's jpeg task only:
// on Skylake it takes 1-20 s and can exhaust its 4000 candidates, and on
// Sandy Bridge no candidate stabilises all sixteen. Even eight targets
// take 20-350 ms on Skylake, and that luck moved a 10 s run by 15%.
func multiTargets() []uint64 {
	t := make([]uint64, 6)
	for c := range t {
		t[c] = victims.ColumnCheckAddr(c)
	}
	return t
}

// searchRound holds the fresh machines one round searches on. Every
// search is a one-time effort on its own machine, as in an attack.
type searchRound struct {
	seed   uint64
	multi  []*sched.System // one per model
	fig4   *sched.System
	noise  *sched.Thread
	find   []*sched.System // one per model
	spies  []*cpu.Context
	models []uarch.Model
}

func newSearchRound(seed uint64) *searchRound {
	r := rng.New(seed)
	rd := &searchRound{seed: seed, models: uarch.All()}
	for _, m := range rd.models {
		rd.multi = append(rd.multi, sched.NewSystem(m, r.Uint64()))
	}
	rd.fig4 = sched.NewSystem(experiments.Fig4Model(), r.Uint64())
	rd.noise = rd.fig4.Spawn("noise", noise.Process(r.Uint64(), noise.DefaultRegion, 1<<22))
	for _, m := range rd.models {
		rd.find = append(rd.find, sched.NewSystem(m, r.Uint64()))
	}
	return rd
}

func killRounds(rounds []*searchRound) {
	for _, rd := range rounds {
		rd.noise.Kill()
	}
}

// searchCounts sums the round's simulated work.
func (rd *searchRound) counts() (branches, cycles, commits, mispredicts uint64) {
	for _, ctx := range append(rd.spies, rd.noise.Context()) {
		branches += ctx.ReadPMC(cpu.BranchInstructions)
	}
	for _, sys := range append(append([]*sched.System{rd.fig4}, rd.multi...), rd.find...) {
		cycles += sys.Core().Clock()
		in := sys.Core().BPU().Introspect()
		commits += in.Commits
		mispredicts += in.Mispredicts
	}
	return
}

// run performs the round's searches: the jpeg multi-target search on
// each model, a fig4-style GenerateBlock+AnalyzeBlock sweep on the
// scaled Figure 4 machine, and FindBlock for SN then ST on each model
// as the poisoning attack does.
func (rd *searchRound) run(out *outcome, tr *tracer, stable *int) {
	r := rng.New(rd.seed ^ 0x5ea7c4)
	for i, sys := range rd.multi {
		spy := sys.NewProcess("spy")
		rd.spies = append(rd.spies, spy)
		m := rd.models[i]
		t0 := time.Now()
		ms, err := core.NewMultiSession(spy, r.Split(), core.MultiConfig{
			Targets: multiTargets(),
			AllowST: m.BPU.FSM.States == 4, // ST decode is ambiguous on the Skylake FSM
		})
		tr.record("core.multi_search."+m.Name, t0, time.Now(), -1)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("round %d %s multi-target search: %v", rd.seed, m.Name, err)
			continue
		}
		out.hash("multi %s %s %v", m.Name, ms.Block(), ms.Targets())
	}

	spy := rd.fig4.NewProcess("spy")
	rd.spies = append(rd.spies, spy)
	cfg := core.SearchConfig{
		TargetAddr:    victims.SecretBranchAddr,
		BlockBranches: 6000,
		Reps:          60,
		OnRep:         func() { rd.noise.Step(90) },
	}
	for b := 0; b < fig4BlocksPerRound; b++ {
		blk := core.GenerateBlock(r, 0x6100_0000, cfg.BlockBranches)
		t0 := time.Now()
		a := core.AnalyzeBlock(spy, blk, cfg)
		tr.record("core.analyze_block", t0, time.Now(), -1)
		out.attempted++
		if a.Stable {
			*stable++
		}
		out.hash("fig4 %s tt=%s/%.4f nn=%s/%.4f state=%s", blk, a.PatTT, a.FreqTT, a.PatNN, a.FreqNN, a.State)
	}

	for i, sys := range rd.find {
		spy := sys.NewProcess("spy")
		rd.spies = append(rd.spies, spy)
		cfg := core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true}
		for _, want := range []core.StateClass{core.StateSN, core.StateST} {
			t0 := time.Now()
			blk, a, err := core.FindBlock(spy, r, cfg, want, 300)
			tr.record("core.find_block", t0, time.Now(), -1)
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("round %d %s FindBlock %s: %v", rd.seed, rd.models[i].Name, want, err)
				continue
			}
			out.hash("find %s %s %s tt=%s/%.4f nn=%s/%.4f", rd.models[i].Name, want, blk, a.PatTT, a.FreqTT, a.PatNN, a.FreqNN)
		}
	}
}

// runSearch: the pre-attack block searches alone, with no victim.
func runSearch(o options, tr *tracer) *outcome {
	out := newOutcome()
	n := (searchRoundsPerTenSeconds*o.seconds + 9) / 10
	rounds, _ := timeSetup(out, searchSetups, func(rep int) ([]*searchRound, error) {
		rounds := make([]*searchRound, n)
		for i := range rounds {
			rounds[i] = newSearchRound(engine.DeriveSeed(o.seed, "search", fmt.Sprint(i)))
		}
		return rounds, nil
	}, killRounds)
	defer killRounds(rounds)

	stable := 0
	ph := startPhase()
	for _, rd := range rounds {
		rd.run(out, tr, &stable)
	}
	out.endPhase(ph)

	var branches, cycles, commits, mispredicts uint64
	for _, rd := range rounds {
		b, c, cm, mp := rd.counts()
		branches, cycles, commits, mispredicts = branches+b, cycles+c, commits+cm, mispredicts+mp
	}
	out.report["sim_branches_per_s"] = measure{float64(branches) / out.wall.Seconds(), "1/s", int(branches), "simulated branches retired per host second"}
	out.notes = append(out.notes, fmt.Sprintf("rounds=%d searches+analyses=%d stable_blocks=%d/%d", n, out.attempted, stable, n*fig4BlocksPerRound))
	workCounts(out, branches, cycles, commits, mispredicts)

	analysed := n * fig4BlocksPerRound
	out.layers["core.stable_block_ratio"] = measure{float64(stable) / float64(analysed), "ratio", analysed, ""}
	if tr != nil {
		for _, m := range uarch.All() {
			d := tr.durations("core.multi_search." + m.Name)
			out.layers["core.multi_search_s."+m.Name] = measure{quantile(d, 0.5).Seconds(), "s", len(d), ""}
		}
		ab := tr.durations("core.analyze_block")
		out.layers["core.analyze_block_ns_p50"] = measure{ns(quantile(ab, 0.5)), "ns", len(ab), ""}
		fb := tr.durations("core.find_block")
		out.layers["core.find_block_s"] = measure{quantile(fb, 0.5).Seconds(), "s", len(fb), ""}
	}
	return out
}
