package sched

import (
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

// TestSystemTelemetry checks the scheduler's counters and the per-thread
// quantum spans on a stepped thread.
func TestSystemTelemetry(t *testing.T) {
	sys := NewSystem(uarch.Skylake(), 1)
	set := telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer())
	sys.SetTelemetry(set)
	if sys.Telemetry() != set {
		t.Fatal("Telemetry() did not return the attached set")
	}

	th := sys.Spawn("worker", func(ctx *cpu.Context) {
		for i := 0; i < 8; i++ {
			ctx.Branch(uint64(0x100+16*i), true)
		}
	})
	th.StepBranches(3)
	th.Run()
	th.Kill() // finished: a no-op, not a kill
	sys.Spawn("idle", func(ctx *cpu.Context) { ctx.Nop(0x10) }).Kill()

	reg := set.Metrics
	if reg.Counter("sched.spawns").Value() != 2 {
		t.Error("sched.spawns != 2")
	}
	if reg.Counter("sched.processes").Value() != 2 {
		t.Error("sched.processes != 2")
	}
	if got := reg.Counter("sched.kills").Value(); got != 1 {
		t.Errorf("sched.kills = %d, want 1", got)
	}
	if got := reg.Counter("sched.steps").Value(); got < 2 {
		t.Errorf("sched.steps = %d, want >= 2", got)
	}
	if reg.Counter("cpu.branches").Value() != 8 {
		t.Errorf("cpu.branches = %d, want 8", reg.Counter("cpu.branches").Value())
	}

	var quanta, named int
	for _, ev := range set.Trace.Events() {
		switch {
		case ev.Name == "quantum" && ev.Phase == telemetry.PhaseComplete:
			quanta++
			if ev.TID != th.Context().TID() {
				t.Errorf("quantum span on tid %d, want %d", ev.TID, th.Context().TID())
			}
		case ev.Phase == telemetry.PhaseMetadata && ev.Args["name"] == "worker":
			named = ev.TID
		}
	}
	if quanta < 2 {
		t.Errorf("trace has %d quantum spans, want >= 2", quanta)
	}
	if named != th.Context().TID() {
		t.Errorf("thread_name metadata on tid %d, want %d", named, th.Context().TID())
	}
}

// TestWorkCountsRetiredInstructions pins that cpu.instructions counts a
// Work instruction when it retires, so a thread preempted or killed
// inside Work leaves the counter equal to the Instructions PMC.
func TestWorkCountsRetiredInstructions(t *testing.T) {
	sys := NewSystem(uarch.Skylake(), 1)
	set := telemetry.New(telemetry.NewRegistry(), nil)
	sys.SetTelemetry(set)
	th := sys.Spawn("worker", func(ctx *cpu.Context) { ctx.Work(100) })
	counter := set.Metrics.Counter("cpu.instructions")
	th.Step(10)
	if got, pmc := counter.Value(), th.Context().ReadPMC(cpu.Instructions); got != 10 || pmc != 10 {
		t.Errorf("after Step(10) inside Work(100): cpu.instructions = %d, PMC = %d, want 10 and 10", got, pmc)
	}
	th.Kill()
	if got := counter.Value(); got != 10 {
		t.Errorf("after Kill: cpu.instructions = %d, want 10", got)
	}
}

// TestTelemetryDisabledThreads pins the nil fast path: without
// SetTelemetry, contexts get tid 0 and stepping emits nothing.
func TestTelemetryDisabledThreads(t *testing.T) {
	sys := NewSystem(uarch.Skylake(), 1)
	th := sys.Spawn("quiet", func(ctx *cpu.Context) { ctx.Work(10) })
	if th.Context().TID() != 0 {
		t.Error("untracked context has a nonzero tid")
	}
	th.Run()
}

// TestInterleaveTelemetry checks slice accounting during timesharing.
func TestInterleaveTelemetry(t *testing.T) {
	sys := NewSystem(uarch.Skylake(), 2)
	set := telemetry.New(telemetry.NewRegistry(), nil)
	sys.SetTelemetry(set)
	a := sys.Spawn("a", func(ctx *cpu.Context) { ctx.Work(1 << 20) })
	b := sys.Spawn("b", func(ctx *cpu.Context) { ctx.Work(1 << 20) })
	defer a.Kill()
	defer b.Kill()
	Interleave(sys.Rand(), []*Thread{a, b}, []int{1, 1}, 160)
	if got := set.Metrics.Counter("sched.interleave_slices").Value(); got != 10 {
		t.Errorf("sched.interleave_slices = %d, want 10", got)
	}
}
