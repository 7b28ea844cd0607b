package sched

import (
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/noise"
	"branchscope/internal/rng"
	"branchscope/internal/uarch"
)

func newSys() *System {
	return NewSystem(uarch.Skylake(), 1)
}

func TestNewProcessDistinctDomains(t *testing.T) {
	s := newSys()
	a := s.NewProcess("a")
	b := s.NewProcess("b")
	if a.Domain() == b.Domain() {
		t.Error("two processes share a domain")
	}
	if a.Domain() == 0 || b.Domain() == 0 {
		t.Error("process got the reserved kernel domain")
	}
}

func TestSpawnStartsSuspended(t *testing.T) {
	s := newSys()
	ran := false
	th := s.Spawn("v", func(ctx *cpu.Context) {
		ran = true
		ctx.Nop(0x10)
	})
	if ran {
		t.Fatal("thread ran before first Step")
	}
	if th.Finished() {
		t.Fatal("thread finished before running")
	}
	th.Run()
	if !ran || !th.Finished() {
		t.Error("thread did not run to completion")
	}
}

func TestStepExactInstructionCount(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) {
		for i := 0; i < 100; i++ {
			ctx.Nop(uint64(0x10 + i))
		}
	})
	th.Step(30)
	if got := th.Context().ReadPMC(cpu.Instructions); got != 30 {
		t.Errorf("after Step(30): %d instructions retired", got)
	}
	th.Step(20)
	if got := th.Context().ReadPMC(cpu.Instructions); got != 50 {
		t.Errorf("after Step(20) more: %d instructions retired", got)
	}
	th.Run()
	if got := th.Context().ReadPMC(cpu.Instructions); got != 100 {
		t.Errorf("after Run: %d instructions retired", got)
	}
}

func TestStepBranchesPausesAfterKthBranch(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) {
		for i := 0; i < 10; i++ {
			ctx.Work(5)
			ctx.Branch(0x100, true)
		}
	})
	th.StepBranches(1)
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 1 {
		t.Errorf("after StepBranches(1): %d branches retired", got)
	}
	// Exactly the 5 work instructions + 1 branch must have retired: the
	// thread pauses immediately after the branch, before more work.
	if got := th.Context().ReadPMC(cpu.Instructions); got != 6 {
		t.Errorf("after StepBranches(1): %d instructions retired, want 6", got)
	}
	th.StepBranches(3)
	if got := th.Context().ReadPMC(cpu.BranchInstructions); got != 4 {
		t.Errorf("after StepBranches(3): %d branches retired", got)
	}
}

func TestStepReturnsFalseWhenFinished(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) {
		ctx.Nop(0x10)
	})
	// The quantum ends on the function's last instruction: the thread
	// is paused inside its retire hook and has not returned yet.
	if !th.Step(1) || th.Finished() {
		t.Error("thread reported finished at the pause on its last instruction")
	}
	// Drain to completion.
	th.Run()
	if th.Step(5) {
		t.Error("Step on finished thread reported runnable")
	}
	if th.StepBranches(1) {
		t.Error("StepBranches on finished thread reported runnable")
	}
}

func TestStepZeroReportsLiveness(t *testing.T) {
	s := newSys()
	th := s.Spawn("v", func(ctx *cpu.Context) { ctx.Nop(1) })
	if !th.Step(0) {
		t.Error("Step(0) on live thread = false")
	}
	th.Run()
	if th.Step(0) {
		t.Error("Step(0) on finished thread = true")
	}
}

func TestThreadsShareCoreBPU(t *testing.T) {
	s := newSys()
	victim := s.Spawn("victim", func(ctx *cpu.Context) {
		for i := 0; i < 4; i++ {
			ctx.Branch(0x100, true)
		}
	})
	victim.Run()
	// The attacker process (direct context) now executes a branch at
	// the same address: the shared PHT entry is strongly taken, so no
	// misprediction.
	spy := s.NewProcess("spy")
	before := spy.ReadPMC(cpu.BranchMisses)
	spy.Branch(0x100, true)
	if spy.ReadPMC(cpu.BranchMisses) != before {
		t.Error("spy mispredicted: PHT not shared across processes")
	}
}

func TestInterleaveDistributesWork(t *testing.T) {
	s := newSys()
	mk := func() func(*cpu.Context) {
		return func(ctx *cpu.Context) {
			for {
				ctx.Nop(0x10)
			}
		}
	}
	a := s.Spawn("a", mk())
	b := s.Spawn("b", mk())
	Interleave(rng.New(7), []*Thread{a, b}, []int{1, 3}, 4000)
	ia := a.Context().ReadPMC(cpu.Instructions)
	ib := b.Context().ReadPMC(cpu.Instructions)
	if ia+ib != 4000 {
		t.Errorf("total interleaved instructions = %d, want 4000", ia+ib)
	}
	if ib <= ia {
		t.Errorf("weight-3 thread ran %d vs weight-1 thread %d", ib, ia)
	}
}

func TestInterleaveStopsWhenAllFinished(t *testing.T) {
	s := newSys()
	a := s.Spawn("a", func(ctx *cpu.Context) { ctx.Nop(1) })
	// Must terminate even though the budget far exceeds the work.
	Interleave(rng.New(1), []*Thread{a}, []int{1}, 1_000_000)
	if !a.Finished() {
		t.Error("thread not finished")
	}
}

func TestInterleavePanics(t *testing.T) {
	s := newSys()
	a := s.Spawn("a", func(ctx *cpu.Context) { ctx.Nop(1) })
	defer a.Run()
	for _, c := range []struct {
		name    string
		weights []int
	}{
		{"mismatch", []int{1, 2}},
		{"negative", []int{-1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			Interleave(rng.New(1), []*Thread{a}, c.weights, 10)
		})
	}
}

func TestInterleaveZeroWeightNoop(t *testing.T) {
	s := newSys()
	a := s.Spawn("a", func(ctx *cpu.Context) { ctx.Nop(1) })
	Interleave(rng.New(1), []*Thread{a}, []int{0}, 100)
	if got := a.Context().ReadPMC(cpu.Instructions); got != 0 {
		t.Errorf("zero-weight thread ran %d instructions", got)
	}
	a.Run()
}

func TestNoiseProcessRunsForever(t *testing.T) {
	s := newSys()
	n := s.Spawn("noise", noise.Process(3, noise.DefaultRegion, 1<<16))
	if !n.Step(500) {
		t.Fatal("noise process finished")
	}
	got := n.Context().ReadPMC(cpu.Instructions)
	if got != 500 {
		t.Errorf("noise executed %d instructions, want 500", got)
	}
	if b := n.Context().ReadPMC(cpu.BranchInstructions); b < 300 {
		t.Errorf("noise executed only %d branches out of 500 instructions", b)
	}
}

func TestNoiseBurst(t *testing.T) {
	s := newSys()
	ctx := s.NewProcess("noise")
	b := noise.NewBurst(9, 0x5000, 1<<12)
	b.Run(ctx, 200)
	if got := ctx.ReadPMC(cpu.Instructions); got != 200 {
		t.Errorf("burst executed %d instructions", got)
	}
	// Zero span falls back to a default rather than panicking.
	nb := noise.NewBurst(1, 0, 0)
	nb.Run(ctx, 10)
}

func TestThreadString(t *testing.T) {
	s := newSys()
	th := s.Spawn("x", func(ctx *cpu.Context) { ctx.Nop(1) })
	if th.String() == "" {
		t.Error("empty String")
	}
	th.Run()
	if th.String() == "" {
		t.Error("empty String after finish")
	}
}

func TestSystemAccessors(t *testing.T) {
	s := newSys()
	if s.Model().Name != "Skylake" {
		t.Errorf("Model = %s", s.Model().Name)
	}
	if s.Core() == nil || s.Rand() == nil {
		t.Error("nil accessor")
	}
}

func TestKillSuspendedThread(t *testing.T) {
	s := newSys()
	cleaned := false
	proc := noise.Process(3, noise.DefaultRegion, 1<<16)
	th := s.Spawn("noise", func(ctx *cpu.Context) {
		defer func() { cleaned = true }()
		proc(ctx)
	})
	th.Step(100)
	th.Kill()
	if !th.Finished() {
		t.Error("killed thread not finished")
	}
	if !cleaned {
		t.Error("Kill did not run the thread function's deferred calls")
	}
	if th.Step(10) {
		t.Error("killed thread still runnable")
	}
}

func TestKillNeverStartedThread(t *testing.T) {
	s := newSys()
	ran := false
	th := s.Spawn("x", func(ctx *cpu.Context) { ran = true })
	th.Kill()
	if !th.Finished() {
		t.Error("killed thread not finished")
	}
	if ran {
		t.Error("killed-before-start thread ran")
	}
}

func TestKillFinishedThreadNoop(t *testing.T) {
	s := newSys()
	th := s.Spawn("x", func(ctx *cpu.Context) { ctx.Nop(1) })
	th.Run()
	th.Kill() // must not hang or panic
}

func TestThreadPanicSurfacesFromStep(t *testing.T) {
	s := newSys()
	th := s.Spawn("x", func(ctx *cpu.Context) {
		ctx.Branch(0x10, true)
		panic("victim fault")
	})
	if !th.StepBranches(1) {
		t.Fatal("thread finished before its panic")
	}
	func() {
		defer func() {
			if r := recover(); r != "victim fault" {
				t.Errorf("recovered %v, want the thread's panic value", r)
			}
		}()
		th.StepBranches(1)
	}()
	if !th.Finished() {
		t.Error("panicked thread not finished")
	}
	if th.Step(1) {
		t.Error("panicked thread still runnable")
	}
	th.Kill() // must be a no-op
}

// noiseStep is a typical background-noise quantum: fig4's default noise
// per repetition, and each half of Skylake's isolated-setting noise
// budget around the victim's branch.
const noiseStep = 90

func TestThreadStepZeroAlloc(t *testing.T) {
	s := newSys()
	victim := s.Spawn("victim", func(ctx *cpu.Context) {
		for i := uint64(0); ; i++ {
			ctx.Work(3)
			ctx.Branch(0x100, i%3 == 0)
		}
	})
	defer victim.Kill()
	n := s.Spawn("noise", noise.Process(3, noise.DefaultRegion, 1<<16))
	defer n.Kill()
	victim.StepBranches(1)
	n.Step(noiseStep)
	if a := testing.AllocsPerRun(100, func() { victim.StepBranches(1) }); a != 0 {
		t.Errorf("StepBranches(1) allocates %.1f times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { n.Step(noiseStep) }); a != 0 {
		t.Errorf("noise Step(%d) allocates %.1f times per call", noiseStep, a)
	}
}

// BenchmarkThreadStep measures one scheduler round trip: a single
// victim branch, and one noise quantum.
func BenchmarkThreadStep(b *testing.B) {
	b.Run("StepBranches1", func(b *testing.B) {
		th := newSys().Spawn("victim", func(ctx *cpu.Context) {
			for {
				ctx.Branch(0x100, true)
			}
		})
		defer th.Kill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.StepBranches(1)
		}
	})
	b.Run("NoiseStep90", func(b *testing.B) {
		th := newSys().Spawn("noise", noise.Process(3, noise.DefaultRegion, 1<<16))
		defer th.Kill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Step(noiseStep)
		}
	})
}
