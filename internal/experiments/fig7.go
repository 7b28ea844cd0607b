package experiments

import (
	"context"
	"fmt"
	"strings"

	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/rng"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
)

// aliasStride is the empirically discovered collision distance (see
// core.GenerateFocusedBlock): addr and addr+aliasStride share a PHT entry
// but live on different icache lines, so the timing experiments can set
// up predictor state without warming the measured instruction.
const aliasStride = uint64(1) << 30

// primeVia drives the PHT entry of target into the strong state for dir
// using an aliased branch, leaving target's own icache line untouched.
func primeVia(hw *cpu.Context, target uint64, dir bool, times int) {
	rb := hw.ResolveBranch(target + aliasStride)
	for i := 0; i < times; i++ {
		rb.Execute(dir)
	}
}

// Fig7Config parameterizes the §8 branch latency characterization:
// rdtscp-measured latency of a single branch instruction under the four
// (direction × prediction) combinations, warm-code only (the paper
// executes each instance twice and records the second execution).
type Fig7Config struct {
	// Samples per case (the paper collects 100 000).
	Samples int
	Model   uarch.Model
	Seed    uint64
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.Samples == 0 {
		c.Samples = 100000
	}
	if c.Model.Name == "" {
		c.Model = uarch.Skylake()
	}
	return c
}

// QuickFig7Config returns a test-scale configuration.
func QuickFig7Config() Fig7Config { return Fig7Config{Samples: 4000} }

// Fig7Case is one latency population.
type Fig7Case struct {
	Taken   bool
	Miss    bool
	Summary stats.Summary
}

// Label renders the case the way the figure legends do.
func (c Fig7Case) Label() string {
	dir := "not-taken"
	if c.Taken {
		dir = "taken"
	}
	kind := "hit"
	if c.Miss {
		kind = "miss"
	}
	return dir + " " + kind
}

// Fig7Result holds the four populations.
type Fig7Result struct {
	Config Fig7Config
	Cases  []Fig7Case
}

// RunFig7 regenerates Figure 7.
func RunFig7(ctx context.Context, cfg Fig7Config) (Fig7Result, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed + 7)
	core := cfg.Model.NewCore(r.Uint64())
	hw := core.NewContext(1)

	res := Fig7Result{Config: cfg}
	const base = 0x5100_0000
	addr := uint64(base)
	for _, taken := range []bool{false, true} {
		for _, miss := range []bool{false, true} {
			// Streaming moments instead of buffering cfg.Samples
			// latencies: at the paper's 100k samples/case the hot loop
			// carries a fixed-size accumulator instead of an 800 KB slice.
			var lat stats.Welford
			for i := 0; i < cfg.Samples; i++ {
				if i%4096 == 0 {
					if err := ctx.Err(); err != nil {
						return Fig7Result{}, fmt.Errorf("experiments: fig7: %w", err)
					}
				}
				addr += 64 // fresh icache line and PHT entry per sample
				prime := taken
				if miss {
					prime = !taken
				}
				primeVia(hw, addr, prime, 4)
				rb := hw.ResolveBranch(addr)
				// First execution warms the instruction (not recorded).
				rb.Execute(taken)
				t0 := hw.ReadTSC()
				rb.Execute(taken)
				lat.Add(float64(hw.ReadTSC() - t0))
			}
			res.Cases = append(res.Cases, Fig7Case{
				Taken: taken, Miss: miss, Summary: lat.Summary(),
			})
		}
	}
	return res, nil
}

// Case returns the population for a direction/prediction pair.
func (r Fig7Result) Case(taken, miss bool) Fig7Case {
	for _, c := range r.Cases {
		if c.Taken == taken && c.Miss == miss {
			return c
		}
	}
	return Fig7Case{}
}

// String renders the mean latencies of the four cases.
func (r Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: latency (cycles) of a branch instruction, %d samples/case (%s)\n",
		r.Config.Samples, r.Config.Model.Name)
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "  %-16s avg %6.1f  (min %4.0f, max %4.0f, stddev %4.1f)\n",
			c.Label(), c.Summary.Mean, c.Summary.Min, c.Summary.Max, c.Summary.StdDev)
	}
	nt := r.Case(false, true).Summary.Mean - r.Case(false, false).Summary.Mean
	tk := r.Case(true, true).Summary.Mean - r.Case(true, false).Summary.Mean
	fmt.Fprintf(&b, "misprediction slowdown: %.1f cycles (not-taken), %.1f cycles (taken)\n", nt, tk)
	return b.String()
}

// Rows implements engine.Result: one row per latency population.
func (r Fig7Result) Rows() []engine.Row {
	rows := make([]engine.Row, 0, len(r.Cases))
	for _, c := range r.Cases {
		rows = append(rows, engine.Row{
			engine.F("case", c.Label()),
			engine.F("taken", c.Taken),
			engine.F("miss", c.Miss),
			engine.F("mean", c.Summary.Mean),
			engine.F("min", c.Summary.Min),
			engine.F("max", c.Summary.Max),
			engine.F("stddev", c.Summary.StdDev),
		})
	}
	return rows
}
