package core

import "branchscope/internal/cpu"

// PMCReadings are the three branch-misprediction counter readings that
// bracket the two spy-branch executions of one PMC probe.
type PMCReadings struct{ M0, M1, M2 uint64 }

// Pattern decodes the readings into the probe's observation pattern.
func (r PMCReadings) Pattern() Pattern { return MakePattern(r.M1 > r.M0, r.M2 > r.M1) }

// ProbePMC performs one probe operation (§6.1 stage 3), the Listing 3
// spy_function: it executes the resolved spy branch rb twice on ctx
// with the given direction, reading the branch-misprediction performance
// counter around each execution. Most callers decode the Pattern; the
// session's health gate first inspects the raw readings for implausible
// values (see DegradeConfig). Attackers probe the same addresses many
// times, so they resolve each spy branch once and pay only the two
// branch executions per probe.
func ProbePMC(ctx *cpu.Context, rb *cpu.ResolvedBranch, taken bool) PMCReadings {
	var r PMCReadings
	r.M0 = ctx.ReadPMC(cpu.BranchMisses)
	rb.Execute(taken)
	r.M1 = ctx.ReadPMC(cpu.BranchMisses)
	rb.Execute(taken)
	r.M2 = ctx.ReadPMC(cpu.BranchMisses)
	return r
}

// TSCSample is the raw material of a timing probe: the rdtscp-measured
// latency of each of the two probe branch executions (§8).
type TSCSample struct {
	First  uint64
	Second uint64
}

// ProbeTSC performs one probe operation measuring each execution of the
// resolved spy branch with the timestamp counter instead of the PMC.
// The caller classifies the latencies against a calibrated threshold
// (see TimingDetector).
func ProbeTSC(ctx *cpu.Context, rb *cpu.ResolvedBranch, taken bool) TSCSample {
	t0 := ctx.ReadTSC()
	rb.Execute(taken)
	t1 := ctx.ReadTSC()
	rb.Execute(taken)
	t2 := ctx.ReadTSC()
	return TSCSample{First: t1 - t0, Second: t2 - t1}
}
