package core

import (
	"fmt"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/stats"
)

// Mapper implements the §6.3 PHT reverse-engineering experiment: decode
// the PHT state behind every virtual address in a range, then recover the
// PHT size from the periodicity of the state vector (Figure 5).
//
// The paper's procedure needs each address's entry probed with both probe
// variants from the same post-setup predictor state. Probing perturbs the
// predictor, so each probe must run against a fresh replay of the
// (deterministic) setup. The Mapper memoizes that replay with a core
// checkpoint: Save once after setup, Restore before each probe. This is
// purely a harness optimization — it is observationally identical to the
// attacker deterministically re-running the setup before each probe.
type Mapper struct {
	core *cpu.Core
	spy  *cpu.Context
	rnd  *rng.Source
}

// NewMapper builds a Mapper. spy must be a context of core.
func NewMapper(core *cpu.Core, spy *cpu.Context, rnd *rng.Source) *Mapper {
	return &Mapper{core: core, spy: spy, rnd: rnd}
}

// placedDirection deterministically assigns the outcome of the branch
// placed at addr during setup (the experiment needs heterogeneous entry
// states; any fixed per-address assignment works).
func placedDirection(addr uint64) bool {
	x := addr * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x&1 == 1
}

// MapStates performs the Figure 5a measurement: execute a randomization
// block, place and execute one branch at each of count consecutive
// addresses from start, then decode each address's PHT entry state with
// the two-variant probe dictionary.
func (m *Mapper) MapStates(start uint64, count int, blockBranches int) []StateClass {
	if count <= 0 {
		panic("core: MapStates needs a positive address count")
	}
	if blockBranches <= 0 {
		blockBranches = 4000
	}
	// Setup: randomize the PHT, then place branches.
	block := GenerateBlock(m.rnd, 0x6200_0000, blockBranches)
	block.Run(m.spy)
	for i := 0; i < count; i++ {
		a := start + uint64(i)
		m.spy.Branch(a, placedDirection(a))
	}
	snap := m.core.Snapshot()

	states := make([]StateClass, count)
	for i := 0; i < count; i++ {
		a := start + uint64(i)
		rb := m.spy.ResolveBranch(a)
		m.core.Restore(snap)
		patTT := ProbePMC(m.spy, &rb, true).Pattern()
		m.core.Restore(snap)
		patNN := ProbePMC(m.spy, &rb, false).Pattern()
		states[i] = DecodeState(patTT, patNN)
	}
	m.core.Restore(snap)
	return states
}

// HammingRatio computes the paper's H(w)/w statistic (Equations 2–3) for
// one window size: the state vector is split into length-w subvectors and
// the mean pairwise Hamming distance is estimated from `pairs` random
// subvector pairs, then normalized by w. A small ratio means subvectors
// repeat — w is (a multiple of) the PHT period.
func HammingRatio(states []StateClass, w int, pairs int, r *rng.Source) float64 {
	if w <= 0 || w > len(states)/2 {
		panic(fmt.Sprintf("core: window %d invalid for %d states", w, len(states)))
	}
	n := len(states) / w
	if pairs <= 0 {
		pairs = 100
	}
	var sum float64
	for p := 0; p < pairs; p++ {
		i := r.Intn(n)
		j := r.Intn(n)
		for j == i {
			j = r.Intn(n)
		}
		a := states[i*w : (i+1)*w]
		b := states[j*w : (j+1)*w]
		sum += float64(stats.Hamming(a, b))
	}
	return sum / float64(pairs) / float64(w)
}

// SizeScan is one point of the Figure 5b curve.
type SizeScan struct {
	Window int
	Ratio  float64
}

// DiscoverPHTSize recovers the PHT size from a state vector (Equation 4):
// it evaluates H(w)/w over candidate window sizes and returns the
// smallest window whose ratio is within tolerance of the global minimum
// (the paper's lowest-w rule for multiple local minima), along with the
// full scan for plotting.
//
// candidates may be nil, in which case all powers of two that fit twice
// into the vector are scanned — the practical search space for
// power-of-two hardware tables — plus a neighbourhood around the best to
// reproduce Figure 5b's fine scan.
func DiscoverPHTSize(states []StateClass, candidates []int, pairs int, r *rng.Source) (int, []SizeScan) {
	if candidates == nil {
		for w := 2; w <= len(states)/2; w *= 2 {
			candidates = append(candidates, w)
		}
	}
	scans := make([]SizeScan, 0, len(candidates))
	best := -1
	bestRatio := 0.0
	for _, w := range candidates {
		if w <= 0 || w > len(states)/2 {
			continue
		}
		ratio := HammingRatio(states, w, pairs, r)
		scans = append(scans, SizeScan{Window: w, Ratio: ratio})
		if best == -1 || ratio < bestRatio {
			best, bestRatio = w, ratio
		}
	}
	if best == -1 {
		panic("core: DiscoverPHTSize had no usable candidate windows")
	}
	// Lowest-w rule: among windows statistically as good as the best,
	// take the smallest (periods repeat at multiples).
	const tolerance = 0.02
	chosen := best
	for _, s := range scans {
		if s.Ratio <= bestRatio+tolerance && s.Window < chosen {
			chosen = s.Window
		}
	}
	return chosen, scans
}
