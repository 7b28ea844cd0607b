package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/core"
	"branchscope/internal/engine"
	"branchscope/internal/rng"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
)

// Fig9Config parameterizes the §8 state-distinguishability study: the
// latency of the two probing branch executions (first and second
// measurement) as a function of the primed PHT state, for both probe
// flavours. The figure shows that all four states can be told apart by
// timing alone.
type Fig9Config struct {
	// Samples per (state, probe) cell.
	Samples int
	// Model defaults to Haswell: its textbook counter exhibits the
	// four-state pattern set the figure annotates (WT probed NN shows
	// MH; on the Skylake FSM that cell reads MM per Table 1 footnote 1).
	Model uarch.Model
	Seed  uint64
}

func (c Fig9Config) withDefaults() Fig9Config {
	if c.Samples == 0 {
		c.Samples = 20000
	}
	if c.Model.Name == "" {
		c.Model = uarch.Haswell()
	}
	return c
}

// QuickFig9Config returns a test-scale configuration.
func QuickFig9Config() Fig9Config { return Fig9Config{Samples: 2500} }

// Fig9Cell is one bar pair of the figure.
type Fig9Cell struct {
	State      core.StateClass
	ProbeTaken bool
	// Expected is the pattern Table 1 predicts for this state/probe.
	Expected core.Pattern
	First    stats.Summary
	Second   stats.Summary
}

// Fig9Result holds all eight cells.
type Fig9Result struct {
	Config Fig9Config
	Cells  []Fig9Cell
}

// fig9Prime returns the outcome sequence that drives a fresh PHT entry
// into the given state on a textbook counter (fresh = WN).
func fig9Prime(s core.StateClass) []bool {
	switch s {
	case core.StateST:
		return []bool{true, true, true}
	case core.StateWT:
		return []bool{true}
	case core.StateWN:
		return nil
	case core.StateSN:
		return []bool{false, false, false}
	}
	panic("experiments: fig9Prime needs a concrete FSM state")
}

// fig9Expected is the Table 1 dictionary for a textbook counter.
func fig9Expected(s core.StateClass, probeTaken bool) core.Pattern {
	if probeTaken {
		switch s {
		case core.StateST, core.StateWT:
			return core.PatternHH
		case core.StateWN:
			return core.PatternMH
		default:
			return core.PatternMM
		}
	}
	switch s {
	case core.StateST:
		return core.PatternMM
	case core.StateWT:
		return core.PatternMH
	default:
		return core.PatternHH
	}
}

// RunFig9 regenerates Figure 9.
func RunFig9(ctx context.Context, cfg Fig9Config) (Fig9Result, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 9)
	cpuCore := cfg.Model.NewCore(r.Uint64())
	hw := cpuCore.NewContext(1)
	res := Fig9Result{Config: cfg}
	addr := uint64(0x5300_0000)
	states := []core.StateClass{core.StateST, core.StateWT, core.StateWN, core.StateSN}
	for _, probeTaken := range []bool{false, true} {
		for _, st := range states {
			// Streaming moments (see fig7.go): two fixed-size
			// accumulators replace two cfg.Samples-long buffers. The
			// prime sequence is fixed per cell, so it is built once.
			primeSeq := fig9Prime(st)
			var first, second stats.Welford
			for i := 0; i < cfg.Samples; i++ {
				if i%4096 == 0 {
					if err := ctx.Err(); err != nil {
						return Fig9Result{}, fmt.Errorf("experiments: fig9: %w", err)
					}
				}
				addr += 64
				prime := hw.ResolveBranch(addr + aliasStride)
				for _, dir := range primeSeq {
					prime.Execute(dir)
				}
				probe := hw.ResolveBranch(addr)
				sample := core.ProbeTSC(hw, &probe, probeTaken)
				first.Add(float64(sample.First))
				second.Add(float64(sample.Second))
			}
			res.Cells = append(res.Cells, Fig9Cell{
				State:      st,
				ProbeTaken: probeTaken,
				Expected:   fig9Expected(st, probeTaken),
				First:      first.Summary(),
				Second:     second.Summary(),
			})
		}
	}
	return res, nil
}

// Rows implements engine.Result: one row per (state, probe) cell.
func (r Fig9Result) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, engine.Row{
			engine.F("state", c.State.String()),
			engine.F("probe_taken", c.ProbeTaken),
			engine.F("expected_pattern", string(c.Expected)),
			engine.F("first_mean", c.First.Mean),
			engine.F("first_stddev", c.First.StdDev),
			engine.F("second_mean", c.Second.Mean),
			engine.F("second_stddev", c.Second.StdDev),
		})
	}
	return rows
}

// String renders both probe-flavour panels.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: probe latency by primed PHT state, %d samples/cell (%s)\n",
		r.Config.Samples, r.Config.Model.Name)
	for _, probeTaken := range []bool{false, true} {
		label := "two not-taken branches"
		if probeTaken {
			label = "two taken branches"
		}
		fmt.Fprintf(&b, "probe with %s:\n", label)
		for _, c := range r.Cells {
			if c.ProbeTaken != probeTaken {
				continue
			}
			fmt.Fprintf(&b, "  %s(%s): 1st %6.1f ± %5.1f   2nd %6.1f ± %5.1f\n",
				c.State, c.Expected,
				c.First.Mean, c.First.StdDev,
				c.Second.Mean, c.Second.StdDev)
		}
	}
	return b.String()
}
