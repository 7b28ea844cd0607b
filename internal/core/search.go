package core

import (
	"fmt"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/stats"
	"branchscope/internal/telemetry"
)

// BlockAnalysis is the statistical characterization of one candidate
// randomization block (§6.2): for each probe variant, the dominant
// observation pattern and how often it dominated, plus the decoded state
// class. This is one point of Figure 4a and one pie slice of Figure 4b.
type BlockAnalysis struct {
	Block *Block
	// PatTT/FreqTT: dominant pattern and its frequency when probing
	// with two taken branches; PatNN/FreqNN likewise for two not-taken.
	PatTT  Pattern
	FreqTT float64
	PatNN  Pattern
	FreqNN float64
	// Stable reports whether both dominant-pattern frequencies reached
	// the stability threshold (the paper uses 85%).
	Stable bool
	// State is the decoded PHT state class (StateUnknown when not
	// Stable).
	State StateClass
}

// SearchConfig parameterizes block generation and evaluation.
type SearchConfig struct {
	// TargetAddr is the virtual address of the victim branch (and of
	// the spy's colliding probe branch).
	TargetAddr uint64
	// SpyBase is the base address of the spy's randomization code
	// region.
	SpyBase uint64
	// BlockBranches is the number of branches per candidate block.
	BlockBranches int
	// Focused selects GenerateFocusedBlock (short, eviction-targeted)
	// over the Listing 1 bulk generator.
	Focused bool
	// Reps is the number of (run block, probe) repetitions per probe
	// variant used to measure pattern stability (the paper uses 1000).
	Reps int
	// Stability is the dominant-pattern frequency required to consider
	// the block stable (the paper uses 0.85).
	Stability float64
	// OnRep, when non-nil, runs between the block execution and the
	// probe of every analysis repetition — the window in which ambient
	// system activity can still disturb the primed entry. The Fig 4
	// harness injects background noise here; the real experiment simply
	// ran on a live machine.
	OnRep func()
}

// withDefaults fills unset fields.
func (c SearchConfig) withDefaults() SearchConfig {
	if c.SpyBase == 0 {
		c.SpyBase = 0x6100_0000
	}
	if c.BlockBranches == 0 {
		if c.Focused {
			c.BlockBranches = 96
		} else {
			c.BlockBranches = 4000
		}
	}
	if c.Reps == 0 {
		c.Reps = 100
	}
	if c.Stability == 0 {
		c.Stability = 0.85
	}
	return c
}

func (c SearchConfig) generate(r *rng.Source) *Block {
	if c.Focused {
		return GenerateFocusedBlock(r, c.SpyBase, c.BlockBranches, c.TargetAddr)
	}
	return GenerateBlock(r, c.SpyBase, c.BlockBranches)
}

// AnalyzeBlock measures the PHT state a block leaves the target entry in,
// using the §6.2 protocol: Reps repetitions of (run block, probe with two
// taken branches), then Reps repetitions of (run block, probe with two
// not-taken branches), decoding the dominant patterns. ctx is the spy's
// context; the probes run at cfg.TargetAddr. It always runs the full
// protocol: Figure 4 needs the frequencies of every block.
func AnalyzeBlock(ctx *cpu.Context, b *Block, cfg SearchConfig) BlockAnalysis {
	cfg = cfg.withDefaults()
	return analyze(ctx, b, []uint64{cfg.TargetAddr}, cfg.Reps, cfg.Stability, cfg.OnRep, nil)[0]
}

// analyze runs the §6.2 protocol against every address in addrs at once —
// each repetition runs the block, calls onRep (when non-nil) and probes
// every address — and returns one BlockAnalysis per address. It is the
// one measurement loop behind AnalyzeBlock, FindBlock and the
// multi-target search.
//
// With accept nil it always runs all 2×reps repetitions. A search passes
// the states it can use, and analyze returns nil as soon as some address
// has no pattern that decodes to an accepted state and can still reach
// stableCount observations in the repetitions left. Such a candidate
// would fail acceptance anyway, so the bound is exact: analyses that are
// returned come from the whole protocol, as without the bound.
func analyze(ctx *cpu.Context, b *Block, addrs []uint64, reps int, stability float64,
	onRep func(), accept func(StateClass) bool) []BlockAnalysis {
	out := make([]BlockAnalysis, len(addrs))
	var allowed []patternSet
	if accept != nil {
		allowed = make([]patternSet, len(addrs))
		for i := range allowed {
			allowed[i] = ttPatterns(accept)
		}
	}
	need := stableCount(reps, stability)
	pats := make([][]Pattern, len(addrs))
	if !observe(ctx, b, addrs, true, reps, onRep, need, allowed, pats) {
		return nil
	}
	for i := range out {
		out[i].PatTT, out[i].FreqTT = stats.Mode(pats[i])
		if allowed != nil {
			allowed[i] = 0
			if out[i].FreqTT >= stability {
				allowed[i] = nnPatterns(accept, out[i].PatTT)
			}
		}
	}
	if !observe(ctx, b, addrs, false, reps, onRep, need, allowed, pats) {
		return nil
	}
	for i := range out {
		a := &out[i]
		a.Block = b
		a.PatNN, a.FreqNN = stats.Mode(pats[i])
		a.Stable = a.FreqTT >= stability && a.FreqNN >= stability
		a.State = StateUnknown
		if a.Stable {
			a.State = DecodeState(a.PatTT, a.PatNN)
		}
	}
	return out
}

// observe runs one probe variant of the protocol: reps repetitions of
// (run block, onRep, probe every address with two branches in direction
// taken), recording address i's patterns in pats[i]. When allowed is
// non-nil it checks before every repetition that each address still has
// an allowed pattern able to reach need observations, and returns false
// at the first repetition where one has none.
func observe(ctx *cpu.Context, b *Block, addrs []uint64, taken bool, reps int,
	onRep func(), need int, allowed []patternSet, pats [][]Pattern) bool {
	counts := make([][4]int, len(addrs))
	rbs := make([]cpu.ResolvedBranch, len(addrs))
	for i, addr := range addrs {
		pats[i] = make([]Pattern, 0, reps)
		rbs[i] = ctx.ResolveBranch(addr)
	}
	for rep := 0; rep < reps; rep++ {
		for i := range allowed {
			if !allowed[i].reachable(&counts[i], need-(reps-rep)) {
				return false
			}
		}
		b.Run(ctx)
		if onRep != nil {
			onRep()
		}
		for i := range rbs {
			p := ProbePMC(ctx, &rbs[i], taken).Pattern()
			pats[i] = append(pats[i], p)
			counts[i][p.index()]++
		}
	}
	return true
}

// stableCount is the smallest dominant-pattern count out of reps that
// meets the stability threshold, by the comparison the acceptance uses;
// reps+1 when no count does.
func stableCount(reps int, stability float64) int {
	for c := 0; c <= reps; c++ {
		if float64(c)/float64(reps) >= stability {
			return c
		}
	}
	return reps + 1
}

// patternSet is a set of probe patterns, one bit per Pattern.index.
type patternSet uint8

// reachable reports whether some pattern in s has at least atLeast
// observations in counts.
func (s patternSet) reachable(counts *[4]int, atLeast int) bool {
	for i, n := range counts {
		if s&(1<<i) != 0 && n >= atLeast {
			return true
		}
	}
	return false
}

// ttPatterns is the set of dominant TT patterns that decode to an
// accepted state together with some NN pattern.
func ttPatterns(accept func(StateClass) bool) patternSet {
	var s patternSet
	for _, tt := range allPatterns {
		if nnPatterns(accept, tt) != 0 {
			s |= 1 << tt.index()
		}
	}
	return s
}

// nnPatterns is the set of dominant NN patterns that decode to an
// accepted state after the dominant TT pattern tt.
func nnPatterns(accept func(StateClass) bool, tt Pattern) patternSet {
	var s patternSet
	for _, nn := range allPatterns {
		if accept(DecodeState(tt, nn)) {
			s |= 1 << nn.index()
		}
	}
	return s
}

// FindBlock is the pre-attack stage (§6.2): it generates candidate
// randomization blocks and analyzes each until one is found that stably
// leaves the target PHT entry in the desired state, or maxCandidates are
// exhausted. A candidate is abandoned as soon as its counts prove it
// cannot reach the desired state (see analyze). The search is a one-time
// effort; the returned block is then reused for every attack episode.
func FindBlock(ctx *cpu.Context, r *rng.Source, cfg SearchConfig, desired StateClass, maxCandidates int) (*Block, BlockAnalysis, error) {
	cfg = cfg.withDefaults()
	if maxCandidates <= 0 {
		maxCandidates = 200
	}
	st := startSearch(ctx)
	isDesired := func(s StateClass) bool { return s == desired }
	for i := 0; i < maxCandidates; i++ {
		b := cfg.generate(r)
		st.candidates.Inc()
		as := analyze(ctx, b, []uint64{cfg.TargetAddr}, cfg.Reps, cfg.Stability, cfg.OnRep, isDesired)
		if as == nil {
			st.earlyRejects.Inc()
			continue
		}
		if a := as[0]; a.Stable && a.State == desired {
			st.end(i+1, desired.String())
			return b, a, nil
		}
	}
	st.end(maxCandidates, "none")
	return nil, BlockAnalysis{}, fmt.Errorf(
		"core: no stable randomization block reaching state %v in %d candidates (target %#x)",
		desired, maxCandidates, cfg.TargetAddr)
}

// searchTelemetry records a block search in the spy core's telemetry:
// core.search.candidates per generated block, core.search.early_rejects
// per candidate the bound abandoned, then core.search.found or
// core.search.exhausted and a block-search span.
type searchTelemetry struct {
	ctx                      *cpu.Context
	tel                      *telemetry.Set
	start                    uint64
	candidates, earlyRejects *telemetry.Counter
}

func startSearch(ctx *cpu.Context) searchTelemetry {
	tel := ctx.Core().Telemetry()
	st := searchTelemetry{ctx: ctx, tel: tel,
		candidates:   tel.Counter("core.search.candidates"),
		earlyRejects: tel.Counter("core.search.early_rejects"),
	}
	if tel != nil {
		st.start = ctx.Core().Clock()
	}
	return st
}

// end closes the search after candidates blocks; outcome is the found
// state's name, or "none" when the search was exhausted.
func (st searchTelemetry) end(candidates int, outcome string) {
	if outcome == "none" {
		st.tel.Counter("core.search.exhausted").Inc()
	} else {
		st.tel.Counter("core.search.found").Inc()
	}
	st.tel.Span(st.ctx.TID(), "attack", "block-search", st.start, st.ctx.Core().Clock(),
		map[string]any{"candidates": candidates, "state": outcome})
}
