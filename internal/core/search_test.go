package core

import (
	"reflect"
	"testing"

	"branchscope/internal/cpu"
	"branchscope/internal/rng"
	"branchscope/internal/telemetry"
	"branchscope/internal/uarch"
)

// exactnessRig is one spy core plus optional ambient noise for the
// exactness test. With noise > 0, every analysis repetition executes,
// with that probability, one alias branch of random direction at a
// random target's PHT entry: this spreads dominant-pattern counts around
// the stability threshold, where an off-by-one bound would show. The
// noise draws come from their own generator, which rewinds with the core.
type exactnessRig struct {
	spy   *cpu.Context
	noise *rng.Source
	onRep func()
}

func newExactnessRig(m uarch.Model, seed uint64, addrs []uint64, noise float64) *exactnessRig {
	rig := &exactnessRig{spy: m.NewCore(seed).NewContext(1), noise: rng.New(seed + 1)}
	if noise > 0 {
		rig.onRep = func() {
			if rig.noise.Chance(noise) {
				addr := addrs[rig.noise.Intn(len(addrs))] + uint64(1+rig.noise.Intn(63))*aliasOffset
				rig.spy.Branch(addr, rig.noise.Bool())
			}
		}
	}
	return rig
}

// boundedVsFull runs one candidate's bounded search step from the rig's
// current state, rewinds the core and the noise, and runs the full
// protocol on the same block. The rig is left where the full protocol
// leaves it.
func (rig *exactnessRig) boundedVsFull(b *Block, addrs []uint64, reps int, stability float64,
	accept func(StateClass) bool) (bounded, full []BlockAnalysis) {
	snap, noise := rig.spy.Core().Snapshot(), *rig.noise
	bounded = analyze(rig.spy, b, addrs, reps, stability, rig.onRep, accept)
	rig.spy.Core().Restore(snap)
	*rig.noise = noise
	full = analyze(rig.spy, b, addrs, reps, stability, rig.onRep, nil)
	return bounded, full
}

// TestEarlyRejectionIsExact checks the search bound against the full §6.2
// protocol on many generated blocks, quiet and under ambient noise: a
// bounded step accepts exactly when the full protocol does, and an
// accepted candidate's analyses (and, for the multi-target search, its
// decode contexts) are the full protocol's.
func TestEarlyRejectionIsExact(t *testing.T) {
	const blocks = 30
	type tally struct{ accepted, early, late int }
	focused, multi := tally{}, tally{}
	focusedAddrs := []uint64{0x0040_06d0}
	multiAddrs := []uint64{0x0042_1000, 0x0042_1020, 0x0042_1040}
	for mi, m := range []uarch.Model{uarch.Skylake(), uarch.Haswell(), uarch.SandyBridge()} {
		for ni, noise := range []float64{0, 0.12} {
			seed := uint64(100 + 10*mi + 2*ni)
			r := rng.New(seed + 50)

			rig := newExactnessRig(m, seed, focusedAddrs, noise)
			cfg := SearchConfig{TargetAddr: focusedAddrs[0], Focused: true, Reps: 40}.withDefaults()
			for _, desired := range []StateClass{StateSN, StateST} {
				accept := func(s StateClass) bool { return s == desired }
				for i := 0; i < blocks; i++ {
					bounded, full := rig.boundedVsFull(cfg.generate(r), focusedAddrs, cfg.Reps, cfg.Stability, accept)
					fullOK := full[0].Stable && full[0].State == desired
					switch {
					case bounded == nil:
						focused.early++
						if fullOK {
							t.Fatalf("%s noise %v %v block %d: rejected early, but the full protocol accepts %+v",
								m.Name, noise, desired, i, full[0])
						}
					case !reflect.DeepEqual(bounded, full):
						t.Fatalf("%s noise %v %v block %d: bounded analysis %+v differs from full %+v",
							m.Name, noise, desired, i, bounded[0], full[0])
					case fullOK:
						focused.accepted++
					default:
						focused.late++
					}
				}
			}

			rig = newExactnessRig(m, seed+1, multiAddrs, noise)
			for _, allowST := range []bool{false, true} {
				mc := MultiConfig{Targets: multiAddrs, AllowST: allowST}.withDefaults()
				for i := 0; i < blocks; i++ {
					bounded, full := rig.boundedVsFull(generateMultiBlock(r, mc), mc.Targets, mc.Reps, mc.Stability, mc.usable)
					fullTargets, fullOK := mc.targetsFrom(full)
					if bounded == nil {
						multi.early++
						if fullOK {
							t.Fatalf("%s noise %v AllowST=%v block %d: rejected early, but the full protocol accepts %+v",
								m.Name, noise, allowST, i, fullTargets)
						}
						continue
					}
					if !reflect.DeepEqual(bounded, full) {
						t.Fatalf("%s noise %v AllowST=%v block %d: bounded analyses %+v differ from full %+v",
							m.Name, noise, allowST, i, bounded, full)
					}
					targets, ok := mc.targetsFrom(bounded)
					if ok != fullOK || !reflect.DeepEqual(targets, fullTargets) {
						t.Fatalf("%s noise %v AllowST=%v block %d: bounded targets %+v/%v, full %+v/%v",
							m.Name, noise, allowST, i, targets, ok, fullTargets, fullOK)
					}
					if ok {
						multi.accepted++
					} else {
						multi.late++
					}
				}
			}
		}
	}
	t.Logf("focused: %+v; multi: %+v", focused, multi)
	// Both outcomes must occur, or the comparison proves nothing.
	for name, c := range map[string]tally{"focused": focused, "multi": multi} {
		if c.accepted == 0 || c.early == 0 {
			t.Errorf("%s blocks: %+v, want both accepted and early-rejected candidates", name, c)
		}
	}
}

func TestStableCount(t *testing.T) {
	for _, tc := range []struct {
		reps      int
		stability float64
		want      int
	}{
		{60, 0.85, 51}, {100, 0.85, 85}, {20, 0.85, 17}, {10, 0.5, 5}, {60, 1, 60}, {60, 1.01, 61},
	} {
		got := stableCount(tc.reps, tc.stability)
		if got != tc.want {
			t.Errorf("stableCount(%d, %v) = %d, want %d", tc.reps, tc.stability, got, tc.want)
		}
		if got <= tc.reps && float64(got)/float64(tc.reps) < tc.stability ||
			got > 0 && float64(got-1)/float64(tc.reps) >= tc.stability {
			t.Errorf("stableCount(%d, %v) = %d is not the smallest stable count", tc.reps, tc.stability, got)
		}
	}
}

// TestSearchAllowedPatterns pins the pattern sets the bound derives from
// DecodeState for the searches' accepted states.
func TestSearchAllowedPatterns(t *testing.T) {
	set := func(ps ...Pattern) patternSet {
		var s patternSet
		for _, p := range ps {
			s |= 1 << p.index()
		}
		return s
	}
	is := func(want StateClass) func(StateClass) bool {
		return func(s StateClass) bool { return s == want }
	}
	noST := MultiConfig{}.usable
	withST := MultiConfig{AllowST: true}.usable
	for _, tc := range []struct {
		name   string
		accept func(StateClass) bool
		tt     patternSet
		nn     map[Pattern]patternSet
	}{
		{"SN", is(StateSN), set(PatternMM), map[Pattern]patternSet{PatternMM: set(PatternHH), PatternHH: 0}},
		{"ST", is(StateST), set(PatternHH), map[Pattern]patternSet{PatternHH: set(PatternMM), PatternMM: 0}},
		{"multi", noST, set(PatternMM, PatternMH, PatternHH), map[Pattern]patternSet{
			PatternMM: set(PatternHH), PatternMH: set(PatternHH), PatternHH: set(PatternMH), PatternHM: 0}},
		{"multi+ST", withST, set(PatternMM, PatternMH, PatternHH), map[Pattern]patternSet{
			PatternHH: set(PatternMH, PatternMM), PatternHM: 0}},
	} {
		if got := ttPatterns(tc.accept); got != tc.tt {
			t.Errorf("%s: TT patterns %04b, want %04b", tc.name, got, tc.tt)
		}
		for tt, want := range tc.nn {
			if got := nnPatterns(tc.accept, tt); got != want {
				t.Errorf("%s: NN patterns after %s %04b, want %04b", tc.name, tt, got, want)
			}
		}
	}
	for _, p := range allPatterns {
		if allPatterns[p.index()] != p {
			t.Errorf("%s.index() = %d", p, p.index())
		}
	}
}

// TestSearchTelemetry checks the core.search.* counters of both
// searches: every candidate is counted, early rejections are a strict
// subset of them, and each search ends found or exhausted exactly once.
func TestSearchTelemetry(t *testing.T) {
	newTel := func(seed uint64) (*cpu.Context, *telemetry.Registry) {
		core := uarch.Haswell().NewCore(seed)
		reg := telemetry.NewRegistry()
		core.SetTelemetry(telemetry.New(reg, nil))
		return core.NewContext(1), reg
	}
	counts := func(reg *telemetry.Registry) (candidates, early, found, exhausted uint64) {
		return reg.Counter("core.search.candidates").Value(), reg.Counter("core.search.early_rejects").Value(),
			reg.Counter("core.search.found").Value(), reg.Counter("core.search.exhausted").Value()
	}

	spy, reg := newTel(31)
	if _, _, err := FindBlock(spy, rng.New(32), SearchConfig{TargetAddr: 0x0040_06d0, Focused: true}, StateSN, 300); err != nil {
		t.Fatal(err)
	}
	if c, e, f, x := counts(reg); f != 1 || x != 0 || c == 0 || e == 0 || e >= c {
		t.Errorf("FindBlock: candidates %d, early_rejects %d, found %d, exhausted %d", c, e, f, x)
	}

	spy, reg = newTel(33)
	targets := make([]uint64, 12)
	for i := range targets {
		targets[i] = 0x0042_1000 + uint64(i)*0x20
	}
	if _, err := NewMultiSession(spy, rng.New(34), MultiConfig{Targets: targets}); err != nil {
		t.Fatal(err)
	}
	if c, e, f, x := counts(reg); f != 1 || x != 0 || c == 0 || e == 0 || e >= c {
		t.Errorf("NewMultiSession: candidates %d, early_rejects %d, found %d, exhausted %d", c, e, f, x)
	}

	// A threshold no count can meet: every candidate is rejected before
	// its first repetition and the search is exhausted.
	spy, reg = newTel(35)
	if _, err := NewMultiSession(spy, rng.New(36), MultiConfig{
		Targets: []uint64{0x0042_1000}, Stability: 1.01, MaxCandidates: 7,
	}); err == nil {
		t.Fatal("search accepted a candidate at stability 1.01")
	}
	if c, e, f, x := counts(reg); c != 7 || e != 7 || f != 0 || x != 1 {
		t.Errorf("exhausted NewMultiSession: candidates %d, early_rejects %d, found %d, exhausted %d", c, e, f, x)
	}
	if spy.Core().Clock() != 0 {
		t.Errorf("candidates rejected before their first repetition still ran %d cycles", spy.Core().Clock())
	}
}
