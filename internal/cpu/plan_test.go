package cpu

import (
	"reflect"
	"testing"

	"branchscope/internal/bpu"
	"branchscope/internal/fsm"
	"branchscope/internal/telemetry"
)

func planTestCore(seed uint64) *Core {
	return NewCore(bpu.Config{
		FSM:          fsm.SkylakeAsym(),
		PHTSize:      1024,
		SelectorSize: 256,
		GHRBits:      12,
		TagEntries:   128,
		BTBEntries:   256,
		Mode:         bpu.Hybrid,
		SelectorInit: 3,
	}, DefaultTiming(), seed)
}

// coreCounterNames are the core-wide telemetry counters every executor
// must advance identically.
var coreCounterNames = []string{
	"cpu.instructions", "cpu.branches", "cpu.branch_misses",
	"cpu.branch_allocations", "cpu.btb_misses", "cpu.icache_misses",
}

// TestPlanMatchesSerialExecution pins the ExecPlan contract: a batched
// run — with or without a retire hook installed — must leave the
// machine (clock, PMCs, core telemetry counters, predictor state,
// icache, and the randomness stream) in exactly the state the
// equivalent serial Branch/Nop calls produce, and a hooked run must
// observe the same PMCs as serial execution at every hook delivery.
func TestPlanMatchesSerialExecution(t *testing.T) {
	type executor struct {
		name string
		core *Core
		x    *Context
		reg  *telemetry.Registry
		seen [][numEvents]uint64 // PMCs read at each hook delivery
	}
	newExecutor := func(name string, hooked bool) *executor {
		e := &executor{name: name, core: planTestCore(77), reg: telemetry.NewRegistry()}
		e.core.SetTelemetry(telemetry.New(e.reg, nil))
		e.x = e.core.NewContext(1)
		if hooked {
			e.x.SetHook(func(bool) {
				var pmc [numEvents]uint64
				for ev := range pmc {
					pmc[ev] = e.x.ReadPMC(Event(ev))
				}
				e.seen = append(e.seen, pmc)
			})
		}
		return e
	}
	serial := newExecutor("serial", true)
	batch := newExecutor("batched", false)
	hooked := newExecutor("hooked plan", true)

	type op struct {
		addr   uint64
		taken  bool
		branch bool
	}
	var ops []op
	base := uint64(0x6100_0000)
	for i := 0; i < 300; i++ {
		a := base + uint64(i%24)*20
		ops = append(ops, op{addr: a, branch: i%5 != 0, taken: i%3 == 0})
	}

	var plans []*ExecPlan
	for _, e := range []*executor{batch, hooked} {
		plan := e.x.NewPlan(len(ops))
		for _, o := range ops {
			if o.branch {
				plan.Branch(o.addr, o.taken)
			} else {
				plan.Nop(o.addr)
			}
		}
		plans = append(plans, plan)
	}

	for rep := 0; rep < 50; rep++ {
		serial.seen, hooked.seen = serial.seen[:0], hooked.seen[:0]
		for _, o := range ops {
			if o.branch {
				serial.x.Branch(o.addr, o.taken)
			} else {
				serial.x.Nop(o.addr)
			}
		}
		for _, plan := range plans {
			plan.Run()
		}

		for _, e := range []*executor{batch, hooked} {
			if serial.core.Clock() != e.core.Clock() {
				t.Fatalf("rep %d: clock diverged: serial %d %s %d", rep, serial.core.Clock(), e.name, e.core.Clock())
			}
			for ev := Event(0); ev < numEvents; ev++ {
				if sv, v := serial.x.ReadPMC(ev), e.x.ReadPMC(ev); sv != v {
					t.Fatalf("rep %d: PMC %v diverged: serial %d %s %d", rep, ev, sv, e.name, v)
				}
			}
			for _, name := range coreCounterNames {
				if sv, v := serial.reg.Counter(name).Value(), e.reg.Counter(name).Value(); sv != v {
					t.Fatalf("rep %d: %s diverged: serial %d %s %d", rep, name, sv, e.name, v)
				}
			}
		}
		if len(serial.seen) != len(ops) || !reflect.DeepEqual(serial.seen, hooked.seen) {
			t.Fatalf("rep %d: hook deliveries diverged: serial %d, hooked plan %d", rep, len(serial.seen), len(hooked.seen))
		}
	}
	if serial.reg.Counter("cpu.icache_misses").Value() == 0 || serial.reg.Counter("cpu.branch_misses").Value() == 0 {
		t.Fatal("stream exercised no icache misses or mispredictions")
	}
	for _, e := range []*executor{batch, hooked} {
		if !reflect.DeepEqual(serial.core.Snapshot(), e.core.Snapshot()) {
			t.Fatalf("core state diverged between serial and %s execution", e.name)
		}
	}
}

// TestPlanHookDelivery pins that a context with a retire hook gets
// per-op hook delivery from Run, in order, with correct branch flags.
func TestPlanHookDelivery(t *testing.T) {
	core := planTestCore(5)
	x := core.NewContext(1)
	var got []bool
	x.SetHook(func(isBranch bool) { got = append(got, isBranch) })

	plan := x.NewPlan(4)
	plan.Branch(0x100, true)
	plan.Nop(0x200)
	plan.Branch(0x300, false)
	plan.Run()

	want := []bool{true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hook delivery = %v, want %v", got, want)
	}
}

// TestResolvedBranchMatchesBranch pins ResolvedBranch against per-call Branch on identically seeded cores.
func TestResolvedBranchMatchesBranch(t *testing.T) {
	serialCore, cachedCore := planTestCore(9), planTestCore(9)
	serial := serialCore.NewContext(2)
	cached := cachedCore.NewContext(2)

	addr := uint64(0x4000)
	rb := cached.ResolveBranch(addr)
	for i := 0; i < 2000; i++ {
		taken := i%7 < 4
		serial.Branch(addr, taken)
		rb.Execute(taken)
	}
	rb = cached.ResolveBranch(addr + 64)
	for i := 0; i < 100; i++ {
		serial.Branch(addr+64, true)
		rb.Execute(true)
	}

	if serialCore.Clock() != cachedCore.Clock() {
		t.Fatalf("clock diverged: serial %d cached %d", serialCore.Clock(), cachedCore.Clock())
	}
	if !reflect.DeepEqual(serialCore.Snapshot(), cachedCore.Snapshot()) {
		t.Fatal("core state diverged between Branch and ResolvedBranch execution")
	}
}

// TestJitterTableDistribution sanity-checks the quantized sampler: the
// empirical mean of uint64(|N(0,σ)|) is ~σ·√(2/π) − 1/2 (half-normal
// mean shifted by the floor), and the table is monotone and saturated.
func TestJitterTableDistribution(t *testing.T) {
	tab := buildJitterTab(2.5)
	if tab[len(tab)-1] != ^uint64(0) {
		t.Fatalf("jitter table not saturated: last threshold %#x", tab[len(tab)-1])
	}
	for i := 1; i < len(tab); i++ {
		if tab[i] < tab[i-1] {
			t.Fatalf("jitter table not monotone at %d", i)
		}
	}
	core := planTestCore(123)
	core.spikeThr = 0 // isolate the half-normal term
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(core.jitter())
	}
	mean := sum / n
	// E[floor(|N(0,2.5)|)] ≈ 2.5·√(2/π) − 0.5 ≈ 1.49; allow generous slack.
	if mean < 1.3 || mean > 1.7 {
		t.Fatalf("jitter mean = %.3f, want ≈1.49", mean)
	}

	if got := buildJitterTab(0); len(got) != 1 || got[0] != ^uint64(0) {
		t.Fatalf("σ=0 table = %v, want single saturated bucket", got)
	}
}
