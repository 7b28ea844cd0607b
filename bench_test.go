// Benchmarks: one testing.B per paper table/figure (plus the extension
// experiments), each regenerating the artifact at test scale per
// iteration. They measure the cost of reproducing the paper's evaluation
// on the simulated substrate; `go test -bench=. -benchmem` runs them all.
// Full-scale runs are available through cmd/experiments.
package branchscope_test

import (
	"context"
	"testing"

	"branchscope/internal/core"
	"branchscope/internal/experiments"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// BenchmarkFig2SelectionLearning regenerates the §5.1 learning curve (E1).
func BenchmarkFig2SelectionLearning(b *testing.B) {
	cfg := experiments.QuickFig2Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunFig2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) != 2 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTable1FSMTransitions regenerates Table 1 on all models (E2).
func BenchmarkTable1FSMTransitions(b *testing.B) {
	models := uarch.All()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			r, err := experiments.RunTable1(context.Background(), m, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			if !r.MatchesPaper() {
				b.Fatalf("%s diverged from the paper", m.Name)
			}
		}
	}
}

// BenchmarkFig4StateDistribution regenerates the Figure 4 block
// characterization (E3).
func BenchmarkFig4StateDistribution(b *testing.B) {
	cfg := experiments.QuickFig4Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunFig4(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig5PHTSizeDiscovery regenerates the Figure 5 reverse
// engineering (E4).
func BenchmarkFig5PHTSizeDiscovery(b *testing.B) {
	cfg := experiments.QuickFig5Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunFig5(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.DiscoveredSize != r.TrueSize {
			b.Fatalf("discovered %d, want %d", r.DiscoveredSize, r.TrueSize)
		}
	}
}

// BenchmarkFig6CovertDemo regenerates the Figure 6 decode demo (E5).
func BenchmarkFig6CovertDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6(context.Background(), experiments.Fig6Config{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Decoded) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTable2CovertErrorRates regenerates the Table 2 grid (E6).
func BenchmarkTable2CovertErrorRates(b *testing.B) {
	cfg := experiments.QuickTable2Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunTable2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) != 6 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig7BranchLatency regenerates the Figure 7 latency
// populations (E7).
func BenchmarkFig7BranchLatency(b *testing.B) {
	cfg := experiments.QuickFig7Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunFig7(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cases) != 4 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig8TimingError regenerates the Figure 8 error curves (E8).
func BenchmarkFig8TimingError(b *testing.B) {
	cfg := experiments.QuickFig8Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunFig8(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig9StateLatency regenerates the Figure 9 per-state latency
// cells (E9).
func BenchmarkFig9StateLatency(b *testing.B) {
	cfg := experiments.QuickFig9Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunFig9(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) != 8 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTable3SGXCovert regenerates the Table 3 SGX grid (E10).
func BenchmarkTable3SGXCovert(b *testing.B) {
	cfg := experiments.QuickTable3Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunTable3(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) != 2 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkMitigationAblation regenerates the §10.2 defense ablation (E11).
func BenchmarkMitigationAblation(b *testing.B) {
	cfg := experiments.QuickMitigationsConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunMitigations(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) != 5 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkMontgomeryKeyRecovery regenerates the §9.2 ladder attack (E12).
func BenchmarkMontgomeryKeyRecovery(b *testing.B) {
	cfg := experiments.QuickMontgomeryConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunMontgomery(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Result.Bits == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkJPEGRecovery regenerates the §9.2 libjpeg attack (E13).
func BenchmarkJPEGRecovery(b *testing.B) {
	cfg := experiments.QuickJPEGConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunJPEG(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Result.Recovered) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkASLRRecovery regenerates the §9.2 derandomization (E14).
func BenchmarkASLRRecovery(b *testing.B) {
	cfg := experiments.QuickASLRConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunASLR(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.SingleBranch.Candidates == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkBTBBaseline regenerates the §11 baseline comparison (E15).
func BenchmarkBTBBaseline(b *testing.B) {
	cfg := experiments.QuickBTBBaselineConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunBTBBaseline(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.BTBError == 0 && r.BranchScope == 0 {
			b.Fatal("bad result")
		}
	}
}

// --- Micro-benchmarks of the substrate's hot paths ---

// BenchmarkBranchExecution measures the cost of one simulated branch.
func BenchmarkBranchExecution(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	ctx := sys.NewProcess("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Branch(uint64(0x1000+i%4096), i&1 == 0)
	}
}

// BenchmarkAttackEpisode measures one full prime+step+probe episode.
func BenchmarkAttackEpisode(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	secret := rng.New(1).Bits(64)
	victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
	defer victim.Kill()
	spy := sys.NewProcess("spy")
	sess, err := core.NewSession(spy, rng.New(2), core.AttackConfig{
		Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.SpyBit(victim, nil, nil)
	}
}

// BenchmarkRandomizationBlock measures one Listing 1 block execution.
func BenchmarkRandomizationBlock(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	ctx := sys.NewProcess("bench")
	block := core.GenerateBlock(rng.New(3), 0x6100_0000, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block.Run(ctx)
	}
}

// BenchmarkPMCProbe measures one two-branch PMC probe.
func BenchmarkPMCProbe(b *testing.B) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	ctx := sys.NewProcess("bench")
	rb := ctx.ResolveBranch(victims.SecretBranchAddr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ProbePMC(ctx, &rb, true)
	}
}

// BenchmarkIfConversionMitigation regenerates the §10.1 software
// mitigation study (extension).
func BenchmarkIfConversionMitigation(b *testing.B) {
	cfg := experiments.QuickIfConversionConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunIfConversion(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.BranchlessError < 0.2 {
			b.Fatal("if-conversion failed to close the channel")
		}
	}
}

// BenchmarkBranchPoisoning regenerates the §1 poisoning study (extension).
func BenchmarkBranchPoisoning(b *testing.B) {
	cfg := experiments.QuickPoisoningConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunPoisoning(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.PoisonedMissRate < 0.5 {
			b.Fatal("poisoning ineffective")
		}
	}
}

// BenchmarkAttackDetection regenerates the §10.2 detector study
// (extension).
func BenchmarkAttackDetection(b *testing.B) {
	cfg := experiments.QuickDetectionConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunDetection(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Workloads) != 4 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkSlidingWindowRecovery regenerates the §9.2 partial-leakage
// study (extension).
func BenchmarkSlidingWindowRecovery(b *testing.B) {
	cfg := experiments.QuickSlidingWindowConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunSlidingWindow(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Result.Steps == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkSMTChannel regenerates the §1 cross-hyperthread channel
// (extension).
func BenchmarkSMTChannel(b *testing.B) {
	cfg := experiments.QuickSMTConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunSMT(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.ErrorRate > 0.2 {
			b.Fatal("channel broken")
		}
	}
}

// BenchmarkPredictorAblation regenerates the §5 predictor-organization
// ablation (extension).
func BenchmarkPredictorAblation(b *testing.B) {
	cfg := experiments.QuickPredictorAblationConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunPredictorAblation(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Modes) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTimingChannel regenerates the §8 PMC-vs-rdtscp comparison
// (extension).
func BenchmarkTimingChannel(b *testing.B) {
	cfg := experiments.QuickTimingChannelConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunTimingChannel(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.TSCError > 0.3 {
			b.Fatal("timing channel broken")
		}
	}
}

// BenchmarkFSMWidthAblation regenerates the counter-width ablation
// (extension).
func BenchmarkFSMWidthAblation(b *testing.B) {
	cfg := experiments.QuickFSMWidthConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		r, err := experiments.RunFSMWidth(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("bad result")
		}
	}
}
