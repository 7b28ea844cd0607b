// Package branchscope is a full reproduction of "BranchScope: A New
// Side-Channel Attack on Directional Branch Predictor" (Evtyushkin, Riley,
// Abu-Ghazaleh, Ponomarev — ASPLOS 2018) as a Go library.
//
// Because the attack manipulates physical branch-predictor state that the
// Go runtime cannot control cycle-accurately, the library ships its own
// microarchitectural substrate: cycle-level simulated cores with hybrid
// directional predictors calibrated against the paper's three Intel CPUs
// (Sandy Bridge, Haswell, Skylake), an OS/scheduler layer providing the
// threat model's co-residency and victim-slowdown capabilities, and an
// SGX enclave model. The attack itself — randomization blocks, pre-attack
// block search, prime+step+probe episodes, PMC and rdtscp probing, PHT
// reverse engineering — is implemented exactly as the paper describes and
// interacts with the substrate only through the architectural interfaces
// a real attacker has.
//
// # Quick start
//
//	sys := branchscope.NewSystem(branchscope.Skylake(), 42)
//	secret := []bool{true, false, true, true}
//	victim := sys.Spawn("victim", branchscope.SecretArraySender(secret, 0))
//	spy := sys.NewProcess("spy")
//	sess, err := branchscope.NewSession(spy, branchscope.NewRand(1), branchscope.AttackConfig{
//		Search: branchscope.SearchConfig{TargetAddr: branchscope.SecretBranchAddr, Focused: true},
//	})
//	// per secret bit: prime, let the victim run one branch, probe, decode
//	bit := sess.SpyBit(victim, nil, nil)
//
// See the examples directory for runnable programs and the
// internal/experiments package (exposed through Experiments) for the
// harness that regenerates every table and figure in the paper.
package branchscope

import (
	"context"

	"branchscope/internal/attacks"
	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/engine"
	"branchscope/internal/experiments"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
	"branchscope/internal/sgx"
	"branchscope/internal/uarch"
	"branchscope/internal/victims"
)

// Simulation substrate.
type (
	// Model is a calibrated microarchitecture (CPU) description.
	Model = uarch.Model
	// System is a simulated machine: one physical core plus scheduling.
	System = sched.System
	// Thread is a steppable simulated process.
	Thread = sched.Thread
	// Context is a hardware thread's architectural interface.
	Context = cpu.Context
	// Enclave is an SGX enclave under an attacker-controlled OS.
	Enclave = sgx.Enclave
	// Rand is the deterministic random source used across the library.
	Rand = rng.Source
)

// The BranchScope attack (the paper's contribution).
type (
	// Session is a ready BranchScope attack instance.
	Session = core.Session
	// AttackConfig parameterizes a Session.
	AttackConfig = core.AttackConfig
	// SearchConfig parameterizes randomization-block generation and the
	// pre-attack search.
	SearchConfig = core.SearchConfig
	// Block is a randomization code block (Listing 1).
	Block = core.Block
	// BlockAnalysis characterizes a candidate block.
	BlockAnalysis = core.BlockAnalysis
	// Pattern is a two-probe observation ("MM", "MH", ...).
	Pattern = core.Pattern
	// StateClass is a decoded PHT entry state.
	StateClass = core.StateClass
	// Stepper is anything the attacker can run branch-by-branch.
	Stepper = core.Stepper
	// Mapper reverse engineers the PHT (§6.3).
	Mapper = core.Mapper
	// TimingDetector classifies branch latencies (§8).
	TimingDetector = core.TimingDetector
	// Experiment is a runnable paper artifact.
	Experiment = experiments.Experiment
)

// The structured run engine behind the experiment suite (see
// internal/engine): typed results, deterministic seed derivation,
// context cancellation and bounded parallel execution.
type (
	// RunConfig is the cross-experiment configuration an Experiment's
	// Run receives: scale selector plus base seed.
	RunConfig = engine.Config
	// RunResult is a typed experiment outcome: paper-layout text via
	// String plus structured rows via Rows.
	RunResult = engine.Result
	// RunPool bounds engine parallelism; attach it to a context with
	// WithPool to let experiments fan out internally.
	RunPool = engine.Pool
)

// NewPool builds a worker pool allowing up to workers concurrently
// running units; WithPool attaches it to a context handed to Run.
var (
	NewPool  = engine.NewPool
	WithPool = engine.WithPool
)

// Decoded PHT state classes.
const (
	StateSN      = core.StateSN
	StateWN      = core.StateWN
	StateWT      = core.StateWT
	StateST      = core.StateST
	StateDirty   = core.StateDirty
	StateUnknown = core.StateUnknown
)

// SecretBranchAddr is the victim branch address of the covert-channel
// benchmark (Listing 2).
const SecretBranchAddr = victims.SecretBranchAddr

// CPU models evaluated by the paper.
var (
	// Skylake returns the i5-6200U model.
	Skylake = uarch.Skylake
	// Haswell returns the i7-4800MQ model.
	Haswell = uarch.Haswell
	// SandyBridge returns the i7-2600 model.
	SandyBridge = uarch.SandyBridge
	// Models returns all three models in paper order.
	Models = uarch.All
	// ModelByName looks a model up by name.
	ModelByName = uarch.ByName
)

// NewSystem boots a simulated machine of the given model; all randomness
// in the machine derives from seed.
func NewSystem(m Model, seed uint64) *System { return sched.NewSystem(m, seed) }

// NewRand returns a deterministic random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewSession performs the pre-attack work (randomization-block search,
// optional timing calibration) and returns a ready attack session.
func NewSession(spy *Context, r *Rand, cfg AttackConfig) (*Session, error) {
	return core.NewSession(spy, r, cfg)
}

// NewMapper builds the §6.3 PHT reverse-engineering harness. spy must be
// a context of sys's core.
func NewMapper(sys *System, spy *Context, r *Rand) *Mapper {
	return core.NewMapper(sys.Core(), spy, r)
}

// DiscoverPHTSize recovers a table size from a mapped state vector
// (Equation 4).
var DiscoverPHTSize = core.DiscoverPHTSize

// LaunchEnclave starts an SGX enclave running fn under the (attacker
// controlled) OS.
func LaunchEnclave(sys *System, name string, fn func(*Context)) *Enclave {
	return sgx.Launch(sys, name, fn)
}

// Victim programs.
var (
	// SecretArraySender is the Listing 2 covert-channel trojan.
	SecretArraySender = victims.SecretArraySender
	// LoopingSecretArraySender restarts the trojan forever.
	LoopingSecretArraySender = victims.LoopingSecretArraySender
	// MontgomeryLadder is the instrumented modular exponentiation.
	MontgomeryLadder = victims.MontgomeryLadder
	// LadderBranchAddr is its secret-dependent branch address.
	LadderBranchAddr = uint64(victims.LadderBranchAddr)
)

// End-to-end attacks (§9.2).
var (
	// RecoverMontgomeryExponent steals a ladder exponent bit by bit.
	RecoverMontgomeryExponent = attacks.RecoverMontgomeryExponent
	// RecoverJPEGStructure steals IDCT block zero-structures.
	RecoverJPEGStructure = attacks.RecoverJPEGStructure
	// DerandomizeASLR narrows an ASLR slide by collision scanning.
	DerandomizeASLR = attacks.DerandomizeASLR
	// DerandomizeASLRMulti pinpoints a slide with multi-offset scans.
	DerandomizeASLRMulti = attacks.DerandomizeASLRMulti
)

// Experiments returns the harness entries that regenerate every table and
// figure of the paper (see DESIGN.md for the index).
func Experiments() []Experiment { return experiments.All() }

// Validate runs the reproduction scorecard: quick-scale regenerations of
// every artifact checked against the paper's qualitative claims. The
// context carries cancellation and, via WithPool, the parallelism bound.
func Validate(ctx context.Context, seed uint64) (experiments.Scorecard, error) {
	return experiments.Validate(ctx, seed)
}

// RunPoisoningDemo runs the branch-poisoning study (§1 extension):
// rounds of forcing a victim branch to mispredict on demand.
func RunPoisoningDemo(ctx context.Context, rounds int, seed uint64) (experiments.PoisoningResult, error) {
	return experiments.RunPoisoning(ctx, experiments.PoisoningConfig{Rounds: rounds, Seed: seed})
}

// RunDetectionDemo runs the §10.2 footprint-detector study against an
// attacker transmitting bits and a set of benign workloads.
func RunDetectionDemo(ctx context.Context, bits int, seed uint64) (experiments.DetectionResult, error) {
	return experiments.RunDetection(ctx, experiments.DetectionConfig{Bits: bits, Seed: seed})
}

// ExperimentByID returns one experiment by its short name ("table2").
var ExperimentByID = experiments.ByID

// DecodeBit translates a probe observation into the victim branch
// direction under the standard prime-SN / probe-taken configuration.
var DecodeBit = core.DecodeBit

// ProbePMC is the raw PMC probe primitive (§7): it executes the spy
// branch at addr twice in direction taken and returns the observed
// misprediction pattern.
func ProbePMC(ctx *Context, addr uint64, taken bool) Pattern {
	rb := ctx.ResolveBranch(addr)
	return core.ProbePMC(ctx, &rb, taken).Pattern()
}

// ProbeTSC is the raw timing probe primitive (§8): it executes the spy
// branch at addr twice in direction taken and returns the rdtscp-measured
// latency of each execution.
func ProbeTSC(ctx *Context, addr uint64, taken bool) core.TSCSample {
	rb := ctx.ResolveBranch(addr)
	return core.ProbeTSC(ctx, &rb, taken)
}
