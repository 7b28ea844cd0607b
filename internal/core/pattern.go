package core

import "fmt"

// Pattern is the observation from one two-execution probe, in the paper's
// Table 1 notation: each character is 'H' for a correctly predicted
// (hit) probe branch or 'M' for a mispredicted one, first execution
// first.
type Pattern string

// The four possible probe observation patterns.
const (
	PatternHH Pattern = "HH"
	PatternHM Pattern = "HM"
	PatternMH Pattern = "MH"
	PatternMM Pattern = "MM"
)

// MakePattern builds a Pattern from the two probe executions'
// misprediction flags. It returns one of the four interned constants so
// the probe hot path never allocates a pattern string.
func MakePattern(firstMiss, secondMiss bool) Pattern {
	switch {
	case firstMiss && secondMiss:
		return PatternMM
	case firstMiss:
		return PatternMH
	case secondMiss:
		return PatternHM
	}
	return PatternHH
}

// Valid reports whether p is one of the four legal patterns.
func (p Pattern) Valid() bool {
	switch p {
	case PatternHH, PatternHM, PatternMH, PatternMM:
		return true
	}
	return false
}

// FirstMiss reports whether the first probe execution mispredicted.
func (p Pattern) FirstMiss() bool { return len(p) == 2 && p[0] == 'M' }

// SecondMiss reports whether the second probe execution mispredicted.
func (p Pattern) SecondMiss() bool { return len(p) == 2 && p[1] == 'M' }

// allPatterns lists the four patterns in index order.
var allPatterns = [4]Pattern{PatternHH, PatternHM, PatternMH, PatternMM}

// index is p's position in allPatterns: the first execution's miss is
// bit 1, the second's bit 0.
func (p Pattern) index() int {
	i := 0
	if p.FirstMiss() {
		i |= 2
	}
	if p.SecondMiss() {
		i |= 1
	}
	return i
}

// StateClass is the architecturally inferred state of a PHT entry, as
// decoded from probe observations (§6.2, Figure 4b). Beyond the four FSM
// states it includes the two non-state outcomes the paper observes:
// Dirty (the randomization had no effect and the BPU predicts the probe
// correctly regardless — the 2-level predictor is likely still engaged)
// and Unknown (observations too unstable to decode).
type StateClass int

// StateClass values in Figure 4b's order.
const (
	StateSN StateClass = iota
	StateWN
	StateWT
	StateST
	StateDirty
	StateUnknown
)

// String implements fmt.Stringer using the paper's labels.
func (s StateClass) String() string {
	switch s {
	case StateSN:
		return "SN"
	case StateWN:
		return "WN"
	case StateWT:
		return "WT"
	case StateST:
		return "ST"
	case StateDirty:
		return "Dirty"
	case StateUnknown:
		return "Unknown"
	}
	return fmt.Sprintf("StateClass(%d)", int(s))
}

// AllStateClasses lists the decodable classes in display order.
func AllStateClasses() []StateClass {
	return []StateClass{StateST, StateWT, StateWN, StateSN, StateDirty, StateUnknown}
}

// DecodeState translates the dominant probe patterns for the two probe
// variants — two taken branches (patTT) and two not-taken branches
// (patNN) — into a PHT state class, per the dictionary derived from
// Table 1:
//
//	probe TT        probe NN        state
//	HH              MM              ST
//	HH              MH              WT   (textbook FSMs; on Skylake this
//	                                      row decodes as ST — the two are
//	                                      indistinguishable)
//	MH              HH              WN
//	MM              HH              SN
//	HH              HH              Dirty
//	anything else                   Unknown
func DecodeState(patTT, patNN Pattern) StateClass {
	switch {
	case patTT == PatternHH && patNN == PatternMM:
		return StateST
	case patTT == PatternHH && patNN == PatternMH:
		return StateWT
	case patTT == PatternMH && patNN == PatternHH:
		return StateWN
	case patTT == PatternMM && patNN == PatternHH:
		return StateSN
	case patTT == PatternHH && patNN == PatternHH:
		return StateDirty
	default:
		return StateUnknown
	}
}

// DecodeBit translates a probe observation into the victim's branch
// direction for the attack's standard configuration: target PHT entry
// primed to strongly not-taken (SN) and probed with two taken branches.
//
// From SN, a taken victim branch moves the entry to WN, so the probe
// observes MH; a not-taken victim branch leaves SN and the probe observes
// MM. The dictionary is extended to cover the rarely observed patterns
// exactly as Figure 6 does: MH, HH → taken; MM, HM → not-taken. (HH
// indicates outside influence pushed the entry further toward taken, so
// taken is the better guess; HM similarly leans not-taken.)
func DecodeBit(p Pattern) bool {
	return p == PatternMH || p == PatternHH
}
