package attacks

import (
	"fmt"

	"branchscope/internal/core"
	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/sched"
)

// ASLR derandomization (§9.2 "ASLR value recovery"): the attacker knows
// the victim binary — hence the page offsets of its branches — but not
// the randomized load slide. Scanning candidate addresses for PHT
// collisions with a running victim branch reveals the branch's PHT index,
// which pins the slide down to an index-collision class. Address bits
// 14–15 do not reach the PHT index on the modelled parts, so a single
// branch narrows a page-aligned slide to a class of aliases; probing
// additional branches at offsets whose carries couple those bits into the
// visible index range (DerandomizeASLRMulti) disambiguates the rest.

// ASLRResult reports a derandomization scan.
type ASLRResult struct {
	// Found is the detected victim branch address (0 when the scan did
	// not narrow the candidates to exactly one).
	Found uint64
	// Candidates is the number of addresses scanned.
	Candidates int
	// Collisions lists every candidate that showed a collision signal —
	// the PHT-index collision class of the victim branch.
	Collisions []uint64
}

// String implements fmt.Stringer.
func (r ASLRResult) String() string {
	return fmt.Sprintf("aslr scan: found %#x among %d candidates (%d collision signals)",
		r.Found, r.Candidates, len(r.Collisions))
}

// DerandomizeASLR scans candidate branch addresses for PHT collisions
// with a running victim. For each candidate the spy primes the
// candidate's PHT entry, obtains a control probe pattern, re-primes, lets
// the victim execute stepBranches branches, and probes again: a pattern
// change is a collision signal. Each candidate is tested reps times and
// flagged on a majority.
//
// stepBranches is 1 for a single-branch victim; for a victim loop
// executing several known branches per iteration, pass the loop's branch
// count so every victim branch runs once per episode regardless of
// stepping alignment.
func DerandomizeASLR(sys *sched.System, victim core.Stepper, candidates []uint64, stepBranches, reps int, seed uint64) ASLRResult {
	if reps < 1 {
		reps = 5
	}
	if stepBranches < 1 {
		stepBranches = 1
	}
	spy := sys.NewProcess("spy")
	r := rng.New(seed)
	res := ASLRResult{Candidates: len(candidates)}
	for _, cand := range candidates {
		hits := 0
		for rep := 0; rep < reps; rep++ {
			if collisionSignal(spy, r, cand, victim, stepBranches) {
				hits++
			}
		}
		if hits*2 > reps {
			res.Collisions = append(res.Collisions, cand)
		}
	}
	if len(res.Collisions) == 1 {
		res.Found = res.Collisions[0]
	}
	return res
}

// collisionSignal runs one prime–step–probe episode against a candidate
// address without a pre-attack block search. A fresh focused block primes
// the candidate entry to an unknown state; a not-taken probe then both
// verifies the entry is on the not-taken side (pattern HH) and normalizes
// it to exactly SN (from SN or WN, two not-taken executions end in SN).
// Blocks that landed on the taken side are discarded and regenerated.
// With the entry pinned at SN, the standard dictionary applies: if the
// victim's branch collides, its (always-taken) execution moves the entry
// and the taken-probe observes MH; otherwise MM.
func collisionSignal(spy *cpu.Context, r *rng.Source, cand uint64, victim core.Stepper, stepBranches int) bool {
	const maxBlockTries = 8
	rb := spy.ResolveBranch(cand)
	for try := 0; try < maxBlockTries; try++ {
		block := core.GenerateFocusedBlock(r, 0x6300_0000, 96, cand)
		block.Run(spy)
		if core.ProbePMC(spy, &rb, false).Pattern() != core.PatternHH {
			continue // entry not on the not-taken side; try another block
		}
		victim.StepBranches(stepBranches)
		return core.DecodeBit(core.ProbePMC(spy, &rb, true).Pattern())
	}
	return false
}

// DerandomizeASLRMulti intersects collision scans over several known
// branch offsets of the victim binary: for each offset it scans
// slide+offset across all candidate slides, then keeps only slides
// flagged for every offset. With offsets chosen so that low-16-bit
// carries couple slide bits 14–15 into the visible index range, the
// intersection identifies the slide uniquely.
//
// victim must execute one branch per offset per loop iteration (in any
// order); slides and offsets define the scanned address grid.
func DerandomizeASLRMulti(sys *sched.System, victim core.Stepper, slides []uint64, offsets []uint64, reps int, seed uint64) ASLRResult {
	if len(offsets) == 0 {
		panic("attacks: DerandomizeASLRMulti needs at least one offset")
	}
	surviving := make(map[uint64]bool, len(slides))
	for _, s := range slides {
		surviving[s] = true
	}
	r := rng.New(seed)
	for _, off := range offsets {
		var cands []uint64
		var slideOf []uint64
		for _, s := range slides {
			if surviving[s] {
				cands = append(cands, s+off)
				slideOf = append(slideOf, s)
			}
		}
		sub := DerandomizeASLR(sys, victim, cands, len(offsets), reps, r.Uint64())
		flagged := make(map[uint64]bool, len(sub.Collisions))
		for _, c := range sub.Collisions {
			flagged[c] = true
		}
		for i, c := range cands {
			if !flagged[c] {
				surviving[slideOf[i]] = false
			}
		}
	}
	res := ASLRResult{Candidates: len(slides)}
	for _, s := range slides {
		if surviving[s] {
			res.Collisions = append(res.Collisions, s)
		}
	}
	if len(res.Collisions) == 1 {
		res.Found = res.Collisions[0]
	}
	return res
}
