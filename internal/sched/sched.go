//go:build go1.23

// The coroutine handoff uses iter.Pull, which needs Go 1.23. The
// module's go line stays at 1.22 so that modules pinned to 1.22 can
// still depend on it; the build constraint above raises this file's
// language version instead, and go.mod's toolchain line supplies a Go
// that has iter.

// Package sched provides the operating-system substrate of the
// simulation: processes scheduled onto the hardware contexts of a
// simulated core, with attacker-relevant control over interleaving.
//
// The paper's threat model (§3) requires (a) attacker/victim co-residency
// on one physical core, (b) the ability to slow the victim down so it
// executes a single branch between the attacker's prime and probe stages
// (via scheduler exploitation in user space, or trivially via a malicious
// OS for SGX), and (c) the attacker triggering victim executions. The
// Thread abstraction realizes exactly these capabilities: a victim runs
// as a cooperative coroutine that the attacker steps by instruction or
// branch quanta, while the attacker's own code runs directly on its
// context.
//
// Each thread is a coroutine (iter.Pull): stepping it switches directly
// from the scheduler's goroutine to the thread's and back, so at any
// moment either the scheduler or exactly one thread is running, the
// simulated core's state needs no locking and execution is fully
// deterministic.
package sched

import (
	"fmt"
	"iter"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

// System is a simulated machine with one physical core and a process
// registry. It hands out hardware contexts with distinct security
// domains.
type System struct {
	model      uarch.Model
	core       *cpu.Core
	rnd        *rng.Source
	nextDomain uint64
	tel        *telemetry.Set
	ctr        sysCounters
}

// sysCounters caches the scheduler's metric handles (all nil when
// telemetry is disabled).
type sysCounters struct {
	processes *telemetry.Counter
	spawns    *telemetry.Counter
	steps     *telemetry.Counter
	switches  *telemetry.Counter
	kills     *telemetry.Counter
}

// NewSystem boots a machine of the given model. All randomness in the
// machine derives from seed.
func NewSystem(model uarch.Model, seed uint64) *System {
	r := rng.New(seed)
	return &System{
		model: model,
		core:  model.NewCore(r.Uint64()),
		rnd:   r.Split(),
		// Domain 0 is reserved for the kernel; processes start at 1.
		nextDomain: 1,
	}
}

// SetTelemetry attaches a telemetry set to the machine: the core's
// retire paths, the scheduler's bookkeeping and every layer above
// (attack sessions, SGX) pick it up from here. Call it right after
// NewSystem, before any process exists — contexts and threads capture
// their handles at creation time.
func (s *System) SetTelemetry(t *telemetry.Set) {
	s.tel = t
	s.core.SetTelemetry(t)
	s.ctr = sysCounters{
		processes: t.Counter("sched.processes"),
		spawns:    t.Counter("sched.spawns"),
		steps:     t.Counter("sched.steps"),
		switches:  t.Counter("sched.context_switches"),
		kills:     t.Counter("sched.kills"),
	}
}

// Telemetry returns the machine's telemetry set (nil when disabled).
func (s *System) Telemetry() *telemetry.Set { return s.tel }

// Model returns the machine's microarchitecture model.
func (s *System) Model() uarch.Model { return s.model }

// Core returns the machine's physical core.
func (s *System) Core() *cpu.Core { return s.core }

// Rand returns the system's random source (for noise generation and
// experiment harnesses).
func (s *System) Rand() *rng.Source { return s.rnd }

// NewProcess allocates a hardware context for a new process. The caller's
// goroutine runs the process directly; use Spawn for a steppable
// coroutine process instead.
func (s *System) NewProcess(name string) *cpu.Context {
	d := s.nextDomain
	s.nextDomain++
	ctx := s.core.NewContext(d)
	s.ctr.processes.Inc()
	s.tel.NameThread(ctx.TID(), name)
	return ctx
}

// grant is one scheduling quantum: budgets in retired instructions and
// retired branches. A negative budget is unlimited.
type grant struct {
	instr    int64
	branches int64
}

// killed is the sentinel panic value used to unwind a killed thread.
type killed struct{}

// Thread is a process running as a cooperative coroutine. It executes
// only while the scheduler has granted it a quantum; it pauses itself by
// yielding from its instruction-retire hook.
//
// A Thread is owned by whoever steps it: Step, StepBranches, Run, Kill
// and Finished must not be called concurrently.
type Thread struct {
	Name string

	ctx *cpu.Context

	// next resumes the coroutine until it yields (true) or fn returns
	// (false); stop unwinds a suspended coroutine; yield, captured when
	// the coroutine first runs, suspends it from inside onRetire.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	budget grant
	done   bool

	// tel and the counters are captured from the System at spawn time
	// (nil when telemetry is disabled).
	tel      *telemetry.Set
	steps    *telemetry.Counter
	switches *telemetry.Counter
	kills    *telemetry.Counter
}

// Spawn creates a process executing fn on a fresh context and returns its
// scheduling handle. fn starts suspended; nothing executes until the
// first Step call.
func (s *System) Spawn(name string, fn func(*cpu.Context)) *Thread {
	t := &Thread{
		Name:     name,
		ctx:      s.NewProcess(name),
		tel:      s.tel,
		steps:    s.ctr.steps,
		switches: s.ctr.switches,
		kills:    s.ctr.kills,
	}
	s.ctr.spawns.Inc()
	t.ctx.SetHook(t.onRetire)
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					panic(r)
				}
			}
		}()
		t.yield = yield
		fn(t.ctx)
	})
	return t
}

// onRetire is the context hook: it spends budget and suspends the
// thread when the quantum is exhausted. A false yield means Kill
// stopped the coroutine; the killed panic unwinds fn, running its
// deferred calls.
func (t *Thread) onRetire(isBranch bool) {
	if t.budget.instr > 0 {
		t.budget.instr--
	}
	if isBranch && t.budget.branches > 0 {
		t.budget.branches--
	}
	if t.budget.instr == 0 || t.budget.branches == 0 {
		if !t.yield(struct{}{}) {
			panic(killed{})
		}
	}
}

// step grants a quantum and switches to the thread until it pauses or
// finishes. It reports whether the thread is still alive. A panic in
// the thread's function propagates out of step and leaves the thread
// finished. With telemetry attached it counts the dispatch (a context
// switch in and back out) and emits one "quantum" span per grant on the
// thread's trace timeline, covering the cycles the thread actually ran.
func (t *Thread) step(g grant) bool {
	if t.done {
		return false
	}
	var start uint64
	if t.tel != nil {
		t.steps.Inc()
		t.switches.Add(2)
		start = t.ctx.Core().Clock()
	}
	t.budget = g
	t.done = true // stays set if next panics
	_, alive := t.next()
	t.done = !alive
	if t.tel != nil {
		if end := t.ctx.Core().Clock(); end > start {
			t.tel.Span(t.ctx.TID(), "sched", "quantum", start, end, nil)
		}
	}
	return alive
}

// Step runs the thread for exactly n retired instructions (of any kind).
// It reports whether the thread is still runnable afterwards. n <= 0 is a
// no-op that reports liveness.
func (t *Thread) Step(n int) bool {
	if n <= 0 {
		return !t.done
	}
	return t.step(grant{instr: int64(n), branches: -1})
}

// StepBranches runs the thread until k more conditional branches have
// retired, pausing immediately after the k-th. This is the victim
// slowdown primitive: StepBranches(1) is "let the victim execute a single
// branch during the context switch" (§7). It reports whether the thread
// is still runnable.
func (t *Thread) StepBranches(k int) bool {
	if k <= 0 {
		return !t.done
	}
	return t.step(grant{instr: -1, branches: int64(k)})
}

// Run lets the thread execute to completion.
func (t *Thread) Run() {
	for t.step(grant{instr: -1, branches: -1}) {
	}
}

// Kill terminates a suspended thread, unwinding its process function
// (deferred calls run). A thread never stepped never runs at all.
// Killing a finished thread is a no-op. This models the OS reclaiming a
// process (noise generators run forever and must be reaped at the end
// of an experiment).
func (t *Thread) Kill() {
	if t.done {
		return
	}
	t.done = true
	t.stop()
	t.kills.Inc()
}

// Finished reports whether the thread's function has returned, panicked
// or been killed.
func (t *Thread) Finished() bool { return t.done }

// Context exposes the thread's hardware context; useful for reading its
// performance counters after it finishes.
func (t *Thread) Context() *cpu.Context { return t.ctx }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	state := "runnable"
	if t.Finished() {
		state = "finished"
	}
	return fmt.Sprintf("thread %q (%s)", t.Name, state)
}

// Interleave runs the given threads in weighted random order until total
// instructions have been distributed or every thread has finished.
// weights must parallel threads; a weight of zero disables a thread. It
// models timesharing of the core among background processes.
func Interleave(rnd *rng.Source, threads []*Thread, weights []int, total int) {
	if len(threads) != len(weights) {
		panic("sched: Interleave weights/threads length mismatch")
	}
	sum := 0
	for _, w := range weights {
		if w < 0 {
			panic("sched: negative weight")
		}
		sum += w
	}
	if sum == 0 {
		return
	}
	const slice = 16 // instructions per mini-quantum
	var slices *telemetry.Counter
	for _, t := range threads {
		if t.tel != nil {
			slices = t.tel.Counter("sched.interleave_slices")
			break
		}
	}
	remaining := total
	alive := len(threads)
	for remaining > 0 && alive > 0 {
		// Pick a thread by weight.
		pick := rnd.Intn(sum)
		var t *Thread
		for i, w := range weights {
			if pick < w {
				t = threads[i]
				break
			}
			pick -= w
		}
		n := slice
		if n > remaining {
			n = remaining
		}
		slices.Inc()
		if !t.Step(n) {
			alive = 0
			for _, th := range threads {
				if !th.Finished() {
					alive++
				}
			}
		}
		remaining -= n
	}
}
