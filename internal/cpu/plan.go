package cpu

// ExecPlan is a batched execution program for one context: a sequence of
// branch and nop instructions whose BPU index resolution is computed at
// compile (append) time and reused across runs. Attack loops that
// re-execute the same instruction block thousands of times — prime
// blocks, probe episodes — compile it once and call Run per iteration,
// paying only the per-branch predictor step, timing draw, and commit.
//
// Run executes each op through the same per-op model as Context.Branch
// and Context.Nop, so it is observationally identical to issuing those
// calls serially: the clock, PMCs, telemetry counters, predictor state,
// randomness draw order and retire-hook delivery points (the chaos
// preemption surface) all evolve exactly as in serial execution.
//
// Plans hold resolved bpu.Site values, which revalidate against the
// unit's index-layout epoch inside Predict, so a plan compiled before
// MarkSensitive stays correct. A plan is tied to the context that
// created it and, like the context itself, is not safe for concurrent
// use. The steady-state Run path performs no heap allocations.
type ExecPlan struct {
	x   *Context
	ops []op
}

// NewPlan creates an empty plan for this context with room for capacity
// ops before the backing array grows.
func (x *Context) NewPlan(capacity int) *ExecPlan {
	return &ExecPlan{x: x, ops: make([]op, 0, capacity)}
}

// Reset empties the plan, retaining its op buffer for reuse.
func (p *ExecPlan) Reset() { p.ops = p.ops[:0] }

// Len returns the number of compiled ops.
func (p *ExecPlan) Len() int { return len(p.ops) }

// Branch appends a conditional branch at addr with direction taken.
func (p *ExecPlan) Branch(addr uint64, taken bool) {
	p.ops = append(p.ops, op{addr: addr, taken: taken, branch: true})
	p.x.core.bpuUnit.Resolve(&p.ops[len(p.ops)-1].site, p.x.domain, addr)
}

// Nop appends a non-branch instruction at addr.
func (p *ExecPlan) Nop(addr uint64) {
	p.ops = append(p.ops, op{addr: addr})
}

// Run executes the compiled ops in order, firing the context's retire
// hook (when installed) after each one.
func (p *ExecPlan) Run() {
	p.x.exec(p.ops)
}
