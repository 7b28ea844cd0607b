// Package leakage measures the quality of the BranchScope channel
// itself — not the harness around it. The mitigation literature
// evaluates defenses by residual channel capacity, not raw accuracy,
// so every attack-vs-defense comparison in this repo reports through
// the estimators here:
//
//   - bit-error rate (BER), with Unknown bits scored as coin flips the
//     way the covert harness scores them;
//   - a full 3-outcome confusion matrix over the channel X ∈ {0, 1}
//     (sent bit) → Y ∈ {0, 1, Unknown} (decoded outcome), fed from
//     core.ReadBit / SpyBit results;
//   - empirical mutual information I(X;Y) in bits/branch from that
//     matrix, and channel capacity in bits/branch via Blahut–Arimoto
//     over the estimated transition matrix;
//   - SNR between the taken and not-taken probe-signal populations
//     (rdtscp latency or PMC delta of the first probe branch), the §8
//     separability statistic as a single number.
//
// Estimators are streaming (stats.Welford underneath; the confusion
// matrix is four integers and a pair of moment accumulators) so a
// window is O(1) memory regardless of length. All arithmetic is
// deterministic: identical observation sequences yield byte-identical
// Reports, which is what lets leakage columns ride the experiment
// suite's byte-identical-at-any-parallelism contract.
//
// The package also owns two process-wide "live" slots — the latest
// leakage Report and the latest predictor introspection snapshot —
// published by experiment harnesses and read by the obs endpoints and
// the -leakage-out/-introspect-out exports (same atomic-pointer idiom
// as experiments.SetDefaultTelemetry). Under a parallel suite the
// slots are last-writer-wins: they are live diagnostics, not part of
// the deterministic report surface.
package leakage

import (
	"encoding/json"
	"io"
	"math"
	"sync/atomic"

	"branchscope/internal/stats"
)

// Schema versions the leakage Report JSON.
const Schema = "branchscope.leakage/v1"

// Outcome indices of the confusion matrix's Y axis.
const (
	outcome0 = iota // decoded 0 (not-taken)
	outcome1        // decoded 1 (taken)
	outcomeU        // Unknown: the resilient read gave up
)

// Estimator accumulates channel-quality statistics online. The zero
// value is an empty estimator ready for use. It is not safe for
// concurrent use; one estimator belongs to one attack window (or is
// the merge target of finished windows).
type Estimator struct {
	conf    [2][3]uint64 // [sent bit][decoded 0 | decoded 1 | unknown]
	signal  [2]stats.Welford
	windows uint64 // completed windows merged into this estimator
}

// Observe records one decoded bit: the sent bit, the decoded value,
// and whether the read committed to it (known=false files the bit
// under Unknown regardless of got).
func (e *Estimator) Observe(sent, got, known bool) {
	y := outcomeU
	if known {
		y = outcome0
		if got {
			y = outcome1
		}
	}
	e.conf[b2i(sent)][y]++
}

// Signal records one probe-signal sample (first-probe rdtscp latency
// or PMC delta) under the sent bit's class, feeding the SNR estimate.
func (e *Estimator) Signal(sent bool, v float64) {
	e.signal[b2i(sent)].Add(v)
}

// Merge folds a finished window into e. The window counts as one
// completed window even if it never merged anything itself.
func (e *Estimator) Merge(w *Estimator) {
	for x := range e.conf {
		for y := range e.conf[x] {
			e.conf[x][y] += w.conf[x][y]
		}
	}
	e.signal[0].Merge(w.signal[0])
	e.signal[1].Merge(w.signal[1])
	n := w.windows
	if n == 0 {
		n = 1
	}
	e.windows += n
}

// Confusion is the 3-outcome confusion matrix of a Report.
type Confusion struct {
	// Sent0 and Sent1 count outcomes [decoded 0, decoded 1, unknown]
	// for transmitted 0 and 1 bits respectively.
	Sent0 [3]uint64 `json:"sent0"`
	Sent1 [3]uint64 `json:"sent1"`
}

// SignalSummary summarizes one probe-signal population of a Report.
type SignalSummary struct {
	N      uint64  `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
}

// Report is a point-in-time rendering of an estimator: the channel-
// quality numbers every surface (experiment rows, gauges, /leakage,
// the ledger) reports. All fields are finite — degenerate windows
// yield zeros, never NaN/Inf (encoding/json rejects the specials).
type Report struct {
	Schema string `json:"schema"`
	// RunID is the run's causal identity (see internal/runstore),
	// stamped from the process-wide value set by SetRunID so archived
	// leakage reports are joinable against their run manifest.
	RunID string `json:"run_id,omitempty"`
	// Bits is the total observed bit count (all confusion cells).
	Bits uint64 `json:"bits"`
	// Unknown counts bits the read path gave up on.
	Unknown uint64 `json:"unknown"`
	// WrongKnown counts bits decoded confidently and wrongly.
	WrongKnown uint64    `json:"wrong_known"`
	Confusion  Confusion `json:"confusion"`
	// BitErrorRate is (wrong-known + unknown/2) / bits — the covert
	// harness's scoring, with an Unknown an admitted coin flip.
	BitErrorRate float64 `json:"bit_error_rate"`
	// MutualInformationBits is the empirical I(X;Y) of the observed
	// channel, in bits per transmitted branch.
	MutualInformationBits float64 `json:"mutual_information_bits"`
	// CapacityBits is the Blahut–Arimoto capacity of the estimated
	// transition matrix, bits/branch — what an optimal input
	// distribution could push through the measured channel. When a
	// sent class was never observed the matrix has no estimate for
	// that row and the field falls back to the empirical MI.
	CapacityBits float64 `json:"capacity_bits"`
	// SNR is (μ1-μ0)² / (σ0²+σ1²) over the probe-signal populations;
	// 0 when either class is missing or both variances vanish.
	SNR float64 `json:"snr"`
	// Signal summarizes the not-taken [0] and taken [1] populations.
	Signal [2]SignalSummary `json:"signal"`
	// Windows is how many attack windows were merged in (1 for a
	// report taken from a single un-merged window).
	Windows uint64 `json:"windows"`
}

// Report renders the estimator's current state.
func (e *Estimator) Report() Report {
	r := Report{
		Schema:    Schema,
		RunID:     RunID(),
		Confusion: Confusion{Sent0: e.conf[0], Sent1: e.conf[1]},
		Windows:   e.windows,
	}
	for x := range e.conf {
		for y, n := range e.conf[x] {
			r.Bits += n
			if y == outcomeU {
				r.Unknown += n
			} else if y != x {
				r.WrongKnown += n
			}
		}
	}
	if r.Windows == 0 && r.Bits > 0 {
		r.Windows = 1
	}
	if r.Bits > 0 {
		r.BitErrorRate = (float64(r.WrongKnown) + 0.5*float64(r.Unknown)) / float64(r.Bits)
		r.MutualInformationBits = e.mutualInformation()
		r.CapacityBits = e.capacity(r.MutualInformationBits)
	}
	for i := range e.signal {
		r.Signal[i] = SignalSummary{
			N:      e.signal[i].N(),
			Mean:   e.signal[i].Mean(),
			StdDev: e.signal[i].StdDev(),
		}
	}
	r.SNR = e.snr()
	return r
}

// mutualInformation computes the empirical I(X;Y) = H(Y) - H(Y|X) of
// the observed (input, outcome) pairs, in bits.
func (e *Estimator) mutualInformation() float64 {
	var rowN [2]float64
	var colN [3]float64
	total := 0.0
	for x := range e.conf {
		for y, n := range e.conf[x] {
			rowN[x] += float64(n)
			colN[y] += float64(n)
			total += float64(n)
		}
	}
	if total == 0 {
		return 0
	}
	hy := stats.EntropyBits(colN[0]/total, colN[1]/total, colN[2]/total)
	hyx := 0.0
	for x := range e.conf {
		if rowN[x] == 0 {
			continue
		}
		px := rowN[x] / total
		hyx += px * stats.EntropyBits(
			float64(e.conf[x][0])/rowN[x],
			float64(e.conf[x][1])/rowN[x],
			float64(e.conf[x][2])/rowN[x])
	}
	mi := hy - hyx
	if mi < 0 { // floating-point slop on a near-independent channel
		mi = 0
	}
	return mi
}

// blahutArimotoIters is the fixed iteration count of the capacity
// solver. On a 2×3 channel the alternating optimization converges
// geometrically; 64 iterations put the residual far below the
// precision anything downstream renders, and a fixed count keeps the
// computation deterministic with no data-dependent loop exits.
const blahutArimotoIters = 64

// capacity runs Blahut–Arimoto on the estimated transition matrix
// W(y|x) = conf[x][y] / Σ_y conf[x][y]. With an unobserved input row
// there is no estimate for that input's behaviour, so the empirical
// MI (the caller passes it) is the honest answer — for the all-zeros
// and all-ones patterns that is 0 bits, as it should be: a channel
// exercised with H(X) = 0 demonstrated no capacity.
func (e *Estimator) capacity(fallbackMI float64) float64 {
	var w [2][3]float64
	for x := range e.conf {
		rowN := 0.0
		for _, n := range e.conf[x] {
			rowN += float64(n)
		}
		if rowN == 0 {
			return fallbackMI
		}
		for y, n := range e.conf[x] {
			w[x][y] = float64(n) / rowN
		}
	}
	q := [2]float64{0.5, 0.5}
	c := [2]float64{}
	for iter := 0; iter < blahutArimotoIters; iter++ {
		// Output distribution under the current input distribution.
		var out [3]float64
		for y := range out {
			out[y] = q[0]*w[0][y] + q[1]*w[1][y]
		}
		// c[x] = exp( Σ_y W(y|x) ln( W(y|x) / out(y) ) ). Whenever
		// W(y|x) > 0 and q[x] > 0, out(y) ≥ q[x]·W(y|x) > 0, so the
		// ratio is well defined; zero terms contribute nothing.
		sum := 0.0
		for x := range w {
			d := 0.0
			for y := range w[x] {
				if w[x][y] > 0 && out[y] > 0 {
					d += w[x][y] * math.Log(w[x][y]/out[y])
				}
			}
			c[x] = math.Exp(d)
			sum += q[x] * c[x]
		}
		if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
			return fallbackMI
		}
		q[0] = q[0] * c[0] / sum
		q[1] = q[1] * c[1] / sum
	}
	cap := math.Log2(q[0]*c[0] + q[1]*c[1])
	if cap < 0 || math.IsNaN(cap) || math.IsInf(cap, 0) {
		cap = 0
	}
	return cap
}

// snr computes the separability statistic of the two probe-signal
// populations. A vanished pooled variance (perfectly quiet simulated
// timing) reads as 0, not +Inf: an unestimable ratio must not poison
// JSON exports.
func (e *Estimator) snr() float64 {
	if e.signal[0].N() == 0 || e.signal[1].N() == 0 {
		return 0
	}
	d := e.signal[1].Mean() - e.signal[0].Mean()
	pooled := e.signal[0].Variance() + e.signal[1].Variance()
	if pooled <= 0 {
		return 0
	}
	return d * d / pooled
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Live slots. The experiment harnesses publish here; the obs server's
// /leakage and /introspect/pht endpoints and the CLIs' -leakage-out /
// -introspect-out exports read here. Atomic pointers make publishing
// race-free against concurrent scrapes.
var (
	liveReport        atomic.Pointer[Report]
	liveIntrospection atomic.Pointer[any]
)

// PublishReport installs r as the process-wide latest leakage report.
func PublishReport(r Report) {
	liveReport.Store(&r)
}

var liveRunID atomic.Pointer[string]

// SetRunID installs the process-wide run identity stamped into every
// report Estimator.Report builds from then on.
func SetRunID(id string) {
	liveRunID.Store(&id)
}

// RunID returns the process-wide run identity ("" until SetRunID).
func RunID() string {
	p := liveRunID.Load()
	if p == nil {
		return ""
	}
	return *p
}

// LatestReport returns a copy of the latest published report, or nil
// when none has been published.
func LatestReport() *Report {
	p := liveReport.Load()
	if p == nil {
		return nil
	}
	r := *p
	return &r
}

// PublishIntrospection installs a predictor introspection snapshot
// (typically a bpu.Introspection) as the process-wide latest. The
// value must already be a self-contained copy; nil is ignored.
func PublishIntrospection(snap any) {
	if snap == nil {
		return
	}
	liveIntrospection.Store(&snap)
}

// LatestIntrospection returns the latest published introspection
// snapshot, or nil when none has been published.
func LatestIntrospection() any {
	p := liveIntrospection.Load()
	if p == nil {
		return nil
	}
	return *p
}

// WriteLatestReport writes the latest published report as indented
// JSON — the -leakage-out export. When no report has been published it
// writes a schema-stamped placeholder with "available": false, so the
// file is always valid JSON with a recognizable schema.
func WriteLatestReport(w io.Writer) error {
	var doc any
	if r := LatestReport(); r != nil {
		doc = r
	} else {
		doc = struct {
			Schema    string `json:"schema"`
			Available bool   `json:"available"`
		}{Schema: Schema, Available: false}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
