// Hot-path throughput guardrail: the per-branch execution path was
// refactored (compiled FSM transition plane, resolved predictor sites,
// quantized jitter sampler, batched ExecPlan) and this file keeps the
// win from regressing. The baseline is a faithful in-test replica of
// the pre-refactor executor — the retained bpu.ReferenceUnit behind the
// original per-branch cost arithmetic, polar-method jitter, and
// per-event counter updates — measured in the same run as the live
// path, in interleaved rounds, so the reported speedup is
// machine-independent and robust to host drift. With -update
// the results go to BENCH_hotpath.json; CI runs TestHotpathGuardrail
// and fails on regression below the gate.
package branchscope_test

import (
	"testing"
	"time"

	"branchscope/internal/bpu"
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/stats"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// hotpathSites is the benchmark working set: enough distinct branch
// addresses to exercise real index computation, few enough to stay
// icache-warm — the steady state of a prime loop.
const hotpathSites = 24

// legacyICacheEntry mirrors the (unchanged) icache line tags.
type legacyICacheEntry struct {
	valid  bool
	domain uint64
	line   uint64
}

// legacyMachine replays the pre-refactor per-branch execution path: the
// spec-walking ReferenceUnit predictor with eager per-call index
// resolution, the polar-method normal jitter draw, and the original
// cost arithmetic of Context.BranchTo, preserved operation for
// operation from the pre-refactor source.
type legacyMachine struct {
	unit   *bpu.ReferenceUnit
	timing cpu.Timing
	rnd    *rng.Source
	icache [cpu.ICacheLines]legacyICacheEntry
	clock  uint64
	pmc    [4]uint64 // instructions, branches, misses, allocations
}

func newLegacyMachine(seed uint64) *legacyMachine {
	return &legacyMachine{
		unit:   bpu.NewReference(uarch.Skylake().BPU),
		timing: cpu.DefaultTiming(),
		rnd:    rng.New(seed),
	}
}

func (m *legacyMachine) icacheAccess(domain, addr uint64) uint64 {
	line := addr >> 6
	e := &m.icache[line%cpu.ICacheLines]
	if e.valid && e.domain == domain && e.line == line {
		return 0
	}
	*e = legacyICacheEntry{valid: true, domain: domain, line: line}
	span := m.timing.ICacheMissMax - m.timing.ICacheMissMin
	if span == 0 {
		return m.timing.ICacheMissMin
	}
	return m.timing.ICacheMissMin + m.rnd.Uint64n(span+1)
}

func (m *legacyMachine) jitter() uint64 {
	n := m.rnd.NormFloat64() * m.timing.JitterSigma
	if n < 0 {
		n = -n
	}
	j := uint64(n)
	if m.rnd.Chance(m.timing.SpikeProb) {
		j += m.rnd.Uint64n(m.timing.SpikeMax + 1)
	}
	return j
}

func (m *legacyMachine) branch(domain, addr uint64, taken bool) {
	cost := m.timing.BranchBase
	cost += m.icacheAccess(domain, addr)
	l := m.unit.Predict(domain, addr)
	if l.Taken != taken {
		cost += m.timing.MispredictPenalty
		m.pmc[2]++
	}
	if taken && !l.BTBHit {
		cost += m.timing.BTBMissPenalty
	}
	cost += m.jitter()
	if m.unit.Commit(l, taken, addr+16) {
		m.pmc[3]++
	}
	m.clock += cost
	m.pmc[0]++
	m.pmc[1]++
}

// hotpathAddr returns the i-th branch address of the working set.
func hotpathAddr(i int) uint64 {
	return 0x6100_0000 + uint64(i%hotpathSites)*20
}

// The three executors, each as a loop that executes n branches of the
// working set. The benchmarks below and the guardrail's interleaved
// rounds run the same loops.

func newLegacyLoop() func(n int) {
	m := newLegacyMachine(42)
	return func(n int) {
		for i := 0; i < n; i++ {
			m.branch(1, hotpathAddr(i), i%3 == 0)
		}
	}
}

func newSerialLoop() func(n int) {
	ctx := uarch.Skylake().NewCore(42).NewContext(1)
	return func(n int) {
		for i := 0; i < n; i++ {
			ctx.Branch(hotpathAddr(i), i%3 == 0)
		}
	}
}

// newBatchedLoop compiles the working set once and executes it
// n/hotpathSites times, so n still counts branches.
func newBatchedLoop() func(n int) {
	ctx := uarch.Skylake().NewCore(42).NewContext(1)
	plan := ctx.NewPlan(hotpathSites)
	for i := 0; i < hotpathSites; i++ {
		plan.Branch(hotpathAddr(i), i%3 == 0)
	}
	return func(n int) {
		for i := 0; i < n; i += hotpathSites {
			plan.Run()
		}
	}
}

func benchHotpath(b *testing.B, run func(n int)) {
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// BenchmarkHotpathLegacy measures the pre-refactor per-branch cost via
// the retained reference implementation.
func BenchmarkHotpathLegacy(b *testing.B) { benchHotpath(b, newLegacyLoop()) }

// BenchmarkHotpathSerial measures the live per-call Branch path.
func BenchmarkHotpathSerial(b *testing.B) { benchHotpath(b, newSerialLoop()) }

// BenchmarkHotpathBatched measures the live batched ExecPlan path. ns/op
// is per branch, like the other two.
func BenchmarkHotpathBatched(b *testing.B) { benchHotpath(b, newBatchedLoop()) }

// readBitSession builds the steady-state resilient-read workload: a
// focused-block attack session against a looping victim.
func readBitSession(t testing.TB) (*core.Session, core.Stepper, func()) {
	sys := sched.NewSystem(uarch.Skylake(), 1)
	secret := rng.New(1).Bits(64)
	victim := sys.Spawn("victim", victims.LoopingSecretArraySender(secret, 0))
	spy := sys.NewProcess("spy")
	sess, err := core.NewSession(spy, rng.New(2), core.AttackConfig{
		Search: core.SearchConfig{TargetAddr: victims.SecretBranchAddr, Focused: true},
		Retry:  core.RetryConfig{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, victim, func() { victim.Kill() }
}

// TestReadBitZeroAlloc pins the steady-state allocation contract of the
// resilient read path: after warm-up (plan compilation, detector state),
// a ReadBit — prime, victim step, probe, vote — performs zero heap
// allocations.
func TestReadBitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	sess, victim, stop := readBitSession(t)
	defer stop()
	// Warm up: compile the block plan and settle predictor state.
	for i := 0; i < 8; i++ {
		sess.ReadBit(victim, nil, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		sess.ReadBit(victim, nil, nil)
	})
	if allocs != 0 {
		t.Errorf("steady-state ReadBit allocates %.1f objects per read, want 0", allocs)
	}
}

// Guardrail rounds: each round times every executor over the same
// number of branches, so host drift (frequency scaling, a noisy
// neighbour) lands on both sides of a round's ratio instead of on
// whichever benchmark happened to run during it.
const (
	hotpathRounds        = 21
	hotpathRoundBranches = 1 << 18
)

// nsPerBranch times one hotpathRoundBranches run of an executor.
func nsPerBranch(run func(n int)) float64 {
	start := time.Now()
	run(hotpathRoundBranches)
	return float64(time.Since(start).Nanoseconds()) / hotpathRoundBranches
}

// TestHotpathGuardrail measures the three executors in interleaved
// rounds and, under -update, writes BENCH_hotpath.json. The gate: the
// median over rounds of the per-round ratio must show the batched path
// at least minSpeedup times faster per branch than the pre-refactor
// baseline, and the steady-state probe path must not allocate.
func TestHotpathGuardrail(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guardrail skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("benchmark guardrail skipped under the race detector")
	}

	loops := []func(n int){newLegacyLoop(), newSerialLoop(), newBatchedLoop()}
	for _, run := range loops {
		run(hotpathRoundBranches / 8) // warm caches and the branch working set
	}
	ns := make([][]float64, len(loops)) // per executor, per round
	ratios := make([]float64, hotpathRounds)
	for round := range ratios {
		// Alternate the order so no executor always runs first.
		for j := range loops {
			k := j
			if round%2 == 1 {
				k = len(loops) - 1 - j
			}
			ns[k] = append(ns[k], nsPerBranch(loops[k]))
		}
		ratios[round] = ns[0][round] / ns[2][round]
	}
	legacyNs, serialNs, batchedNs := stats.Median(ns[0]), stats.Median(ns[1]), stats.Median(ns[2])
	speedup := stats.Median(ratios)

	sess, victim, stop := readBitSession(t)
	defer stop()
	for i := 0; i < 8; i++ {
		sess.ReadBit(victim, nil, nil)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sess.ReadBit(victim, nil, nil)
	})

	const minSpeedup = 2.0
	pass := speedup >= minSpeedup && allocs == 0

	report := struct {
		LegacyNsPerBranch  float64   `json:"baseline_ns_per_branch"`
		SerialNsPerBranch  float64   `json:"serial_ns_per_branch"`
		BatchedNsPerBranch float64   `json:"batched_ns_per_branch"`
		Speedup            float64   `json:"speedup_batched_over_baseline"`
		RoundSpeedups      []float64 `json:"round_speedups"`
		MinSpeedup         float64   `json:"min_speedup"`
		AllocsPerProbe     float64   `json:"allocs_per_readbit"`
		Sites              int       `json:"working_set_branches"`
		Pass               bool      `json:"pass"`
	}{
		LegacyNsPerBranch:  legacyNs,
		SerialNsPerBranch:  serialNs,
		BatchedNsPerBranch: batchedNs,
		Speedup:            speedup,
		RoundSpeedups:      ratios,
		MinSpeedup:         minSpeedup,
		AllocsPerProbe:     allocs,
		Sites:              hotpathSites,
		Pass:               pass,
	}
	writeBenchReport(t, "BENCH_hotpath.json", report)
	t.Logf("median of %d rounds: legacy %.1f ns/branch, serial %.1f, batched %.1f: speedup %.2fx (rounds %.2f), ReadBit allocs %.1f",
		hotpathRounds, legacyNs, serialNs, batchedNs, speedup, ratios, allocs)
	if speedup < minSpeedup {
		t.Errorf("batched hot path is only %.2fx the pre-refactor baseline in the median round (want >= %.1fx; rounds %.2f)",
			speedup, minSpeedup, ratios)
	}
	if allocs != 0 {
		t.Errorf("steady-state ReadBit allocates %.1f objects per read, want 0", allocs)
	}
}
