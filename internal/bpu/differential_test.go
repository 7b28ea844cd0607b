package bpu

import (
	"fmt"
	"reflect"
	"testing"

	"branchscope/internal/fsm"
	"branchscope/internal/rng"
)

// referenceSnapshot captures the reference unit's architectural state in
// the same shape as Unit.Snapshot so the two can be compared directly.
func (u *ReferenceUnit) snapshot() *Snapshot {
	return &Snapshot{
		pht:      append([]uint8(nil), u.entries...),
		selector: append([]uint8(nil), u.selector...),
		ghr:      u.ghr,
		tags:     append([]tagEntry(nil), u.tags...),
		btb:      append([]btbEntry(nil), u.btb...),
	}
}

// diffConfigs enumerates the matrix the differential satellite requires:
// every FSM spec the models use (the textbook counter of Sandy Bridge
// and Haswell, the asymmetric Skylake counter, plus a wider generic
// shape) under every mode and every §10.2 mitigation. Table sizes are
// kept small so collisions and partition effects are exercised heavily;
// one full-size Skylake-shaped config guards the realistic geometry.
func diffConfigs() []Config {
	specs := []*fsm.Spec{
		fsm.Textbook2Bit(), // Sandy Bridge / Haswell
		fsm.SkylakeAsym(),  // Skylake
		fsm.Saturating("wide-3-3", 3, 3, 2),
	}
	var cfgs []Config
	for _, spec := range specs {
		for _, mode := range []Mode{Hybrid, BimodalOnly, GshareOnly, StaticOnly} {
			for _, mit := range []Mitigation{
				MitigationNone,
				MitigationRandomizedIndex,
				MitigationPartitioned,
				MitigationNoPredictSensitive,
				MitigationStochasticFSM,
			} {
				cfg := Config{
					FSM:          spec,
					PHTSize:      64,
					SelectorSize: 16,
					GHRBits:      8,
					TagEntries:   24, // deliberately not a power of two
					BTBEntries:   32,
					Mode:         mode,
					SelectorInit: 3,
					Mitigation:   mit,
				}
				switch mit {
				case MitigationRandomizedIndex:
					cfg.IndexKey = 0xfeed_f00d_dead_beef
				case MitigationPartitioned:
					cfg.Domains = 3 // odd partition span: exercises the modulo fallback
				case MitigationStochasticFSM:
					cfg.StochasticP = 0.5
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	// Realistic Skylake geometry (matches uarch.Skylake).
	cfgs = append(cfgs, Config{
		FSM:          fsm.SkylakeAsym(),
		PHTSize:      16384,
		SelectorSize: 4096,
		GHRBits:      16,
		TagEntries:   2048,
		BTBEntries:   4096,
		Mode:         Hybrid,
		SelectorInit: 3,
	})
	return cfgs
}

// TestDifferentialReferenceVsFast steps the retained pre-refactor
// predictor and the flat-plane/resolved-site fast path over identical
// randomized branch streams and asserts prediction-for-prediction and
// state-for-state equivalence at every step.
func TestDifferentialReferenceVsFast(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s/%s/%s/pht%d",
			cfg.FSM.Name, cfg.Mode, cfg.Mitigation, cfg.PHTSize)
		t.Run(name, func(t *testing.T) {
			fast := New(cfg)
			ref := NewReference(cfg)
			if cfg.Mitigation == MitigationNoPredictSensitive {
				fast.MarkSensitive(0x2000, 0x2800)
				ref.MarkSensitive(0x2000, 0x2800)
			}
			r := rng.New(0xd1ff + uint64(len(cfg.FSM.Name)))
			// A handful of recurring sites (so tags/selector train) mixed
			// with fresh addresses (so allocation churn is exercised),
			// spread across the sensitive range and three domains.
			hot := make([]uint64, 12)
			for i := range hot {
				hot[i] = 0x1000 + uint64(i)*0x151
			}
			hot[3], hot[7] = 0x2100, 0x2404 // inside the sensitive range
			for step := 0; step < 6000; step++ {
				domain := r.Uint64n(3)
				addr := hot[r.Uint64n(uint64(len(hot)))]
				if r.Chance(0.25) {
					addr = 0x4000 + r.Uint64n(1<<20)
				}
				taken := r.Chance(0.6)
				target := addr + 16 + r.Uint64n(256)

				lf := predict(fast, domain, addr)
				lr := ref.Predict(domain, addr)
				if lf.Taken != lr.Taken || lf.BTBHit != lr.BTBHit ||
					lf.Target != lr.Target || lf.UsedGshare != lr.UsedGshare ||
					lf.Static != lr.Static {
					t.Fatalf("step %d: lookup diverged for addr %#x domain %d:\nfast %+v\nref  %+v",
						step, addr, domain, lf, lr)
				}
				af := fast.Commit(lf, taken, target)
				ar := ref.Commit(lr, taken, target)
				if af != ar {
					t.Fatalf("step %d: allocation diverged: fast %v ref %v", step, af, ar)
				}
			}
			sf, sr := fast.Snapshot(), ref.snapshot()
			if !reflect.DeepEqual(sf, sr) {
				t.Fatalf("architectural state diverged after stream:\nghr fast %#x ref %#x\npht equal: %v\nselector equal: %v",
					sf.ghr, sr.ghr,
					reflect.DeepEqual(sf.pht, sr.pht),
					reflect.DeepEqual(sf.selector, sr.selector))
			}
		})
	}
}

// TestDifferentialSiteReuse pins the resolved-site path specifically: a
// Site cached across thousands of executions (the ExecPlan situation)
// must behave exactly like per-call Predict, including across a
// MarkSensitive layout change that invalidates it mid-stream.
func TestDifferentialSiteReuse(t *testing.T) {
	cfg := Config{
		FSM:          fsm.SkylakeAsym(),
		PHTSize:      256,
		SelectorSize: 64,
		GHRBits:      10,
		TagEntries:   64,
		BTBEntries:   64,
		Mode:         Hybrid,
		SelectorInit: 3,
		Mitigation:   MitigationNoPredictSensitive,
	}
	cached := New(cfg)
	fresh := New(cfg)
	addr := uint64(0x9000)
	var site Site
	cached.Resolve(&site, 1, addr)
	r := rng.New(42)
	for step := 0; step < 4000; step++ {
		if step == 2000 {
			// Invalidate the cached layout mid-stream.
			cached.MarkSensitive(addr, addr+4)
			fresh.MarkSensitive(addr, addr+4)
		}
		taken := r.Chance(0.5)
		var lc Lookup
		cached.Predict(&lc, &site)
		lfr := predict(fresh, 1, addr)
		if lc != *lfr {
			t.Fatalf("step %d: cached site diverged from fresh predict:\ncached %+v\nfresh  %+v", step, lc, lfr)
		}
		cached.Commit(&lc, taken, addr+32)
		fresh.Commit(lfr, taken, addr+32)
	}
	if !reflect.DeepEqual(cached.Snapshot(), fresh.Snapshot()) {
		t.Fatal("architectural state diverged between cached-site and fresh-predict units")
	}
}
