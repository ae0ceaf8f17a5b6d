package check

import (
	"fmt"
	"math"

	"pricepower/internal/core"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
)

// Deterministic replay
//
// A whole experiment is a pure function of its configuration and seed (the
// sim package's contract), so two runs of the same build must agree bit for
// bit. The Recorder captures that as a sequence of cheap digests — an
// FNV-1a fold over prices, frequencies, and allocations at every market
// round (and, optionally, over the platform state on a fixed sampling
// grid). Replay re-runs the experiment and reports the first sample where
// the digests diverge, turning "the numbers drifted" into "round 217
// diverged", which bisects straight to the responsible change.
//
// Digests are bit-exact over float64 values, which is exactly the point —
// but it also means they are specific to a compilation target's floating-
// point contraction choices. Goldens are regenerated with -update (see
// internal/exp/golden_test.go) rather than computed by hand.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest is an incremental FNV-1a 64-bit fold.
type Digest uint64

// NewDigest returns an empty digest (the FNV-1a offset basis).
func NewDigest() Digest { return fnvOffset64 }

// Uint64 folds one 64-bit word, byte by byte.
func (d Digest) Uint64(v uint64) Digest {
	h := uint64(d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return Digest(h)
}

// Int folds a signed integer.
func (d Digest) Int(v int64) Digest { return d.Uint64(uint64(v)) }

// Float folds a float64 bit pattern (normalizing the two zeros so that
// -0.0 and +0.0 — indistinguishable to every consumer — digest alike).
func (d Digest) Float(f float64) Digest {
	if f == 0 {
		f = 0
	}
	return d.Uint64(math.Float64bits(f))
}

// Bool folds a boolean.
func (d Digest) Bool(b bool) Digest {
	if b {
		return d.Uint64(1)
	}
	return d.Uint64(0)
}

// String folds a string.
func (d Digest) String(s string) Digest {
	h := uint64(d)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return Digest(h)
}

// MarketDigest folds the complete observable market state: per-core prices
// and base prices, per-cluster V-F positions and freeze flags, every
// agent's bid/savings/allowance/purchase, and the chip agent's allowance,
// state and smoothed power.
func MarketDigest(m *core.Market) uint64 {
	d := NewDigest().
		Int(int64(m.Round())).
		Float(m.Allowance()).
		Float(m.SmoothedPower()).
		Int(int64(m.State()))
	for _, v := range m.Clusters {
		d = d.Int(int64(v.Control.Level())).Bool(v.Frozen()).Float(v.Allowance())
		for _, ca := range v.Cores {
			d = d.Float(ca.Price()).Float(ca.BasePrice()).Float(ca.Allowance())
			for _, t := range ca.Tasks {
				d = d.Int(int64(t.ID)).Float(t.Bid()).Float(t.Savings()).
					Float(t.Allowance()).Float(t.Purchased())
			}
		}
	}
	return uint64(d)
}

// PlatformDigest folds the governor-agnostic platform state: cluster
// power/level, core utilizations, and every task's placement, weight,
// delivered work and progress.
func PlatformDigest(p *platform.Platform) uint64 {
	d := NewDigest().Int(int64(p.Now())).Float(p.Power())
	for _, cl := range p.Chip.Clusters {
		d = d.Bool(cl.On).Int(int64(cl.Level())).Int(int64(cl.Transitions()))
	}
	for _, c := range p.Chip.Cores {
		d = d.Float(p.Utilization(c.ID))
	}
	for _, t := range p.Tasks() {
		d = d.Int(int64(t.ID)).Int(int64(p.CoreOf(t))).Bool(p.Migrating(t)).
			Float(p.Weight(t)).Float(p.TotalWork(t)).Float(t.Heartbeats())
	}
	return uint64(d)
}

// Trace is one recorded run: identity plus the digest sequence.
type Trace struct {
	Name   string `json:"name"`
	Seed   uint64 `json:"seed"`
	Config string `json:"config"`
	// Digests holds one sample per recorded point (market round or
	// platform sampling period).
	Digests []uint64 `json:"-"`
	// Rounds holds, per sample, the market round the digest was taken
	// after (0 for non-market samples: platform grid points and arbitrary
	// Record folds). Sample indices and market rounds are different axes —
	// the first market sample is round 1, and interleaved platform samples
	// shift every later index — so divergence localization reports both.
	Rounds []int `json:"-"`
	// Final folds the whole sequence into one word (order-sensitive).
	Final uint64 `json:"-"`
}

// RoundAt reports the market round of sample i, or 0 when the sample is
// not a market round (or the trace predates round tracking).
func (t *Trace) RoundAt(i int) int {
	if i < 0 || i >= len(t.Rounds) {
		return 0
	}
	return t.Rounds[i]
}

// FinalHex renders the folded digest for golden fixtures.
func (t *Trace) FinalHex() string { return fmt.Sprintf("%016x", t.Final) }

// Diff compares two traces sample by sample. It returns the index of the
// first diverging sample and false, or (-1, true) when the traces agree
// (including in length).
func (t *Trace) Diff(other *Trace) (int, bool) {
	n := len(t.Digests)
	if len(other.Digests) < n {
		n = len(other.Digests)
	}
	for i := 0; i < n; i++ {
		if t.Digests[i] != other.Digests[i] {
			return i, false
		}
	}
	if len(t.Digests) != len(other.Digests) {
		return n, false
	}
	return -1, true
}

// Recorder captures a Trace while a run executes. Attach it to a platform
// with AttachChecker, or drive it manually with RecordRound after each
// StepOnce of a platform-less market harness.
type Recorder struct {
	RecorderOptions
	trace     Trace
	lastRound int
	nextAt    sim.Time
}

// RecorderOptions selects what the recorder samples.
type RecorderOptions struct {
	// Market, when set, records a MarketDigest after every market round.
	Market *core.Market
	// SampleEvery, when positive, additionally records a PlatformDigest on
	// that virtual-time grid (aligned to the attached platform's ticks).
	SampleEvery sim.Time
}

// NewRecorder builds a recorder for a run identified by name, seed and a
// free-form config description (all three are replay identity: Replay
// refuses to diff traces of different runs).
func NewRecorder(name string, seed uint64, config string, opt RecorderOptions) *Recorder {
	return &Recorder{
		RecorderOptions: opt,
		trace:           Trace{Name: name, Seed: seed, Config: config, Final: uint64(NewDigest())},
	}
}

func (r *Recorder) push(sample uint64, round int) {
	r.trace.Digests = append(r.trace.Digests, sample)
	r.trace.Rounds = append(r.trace.Rounds, round)
	r.trace.Final = uint64(Digest(r.trace.Final).Uint64(sample))
}

// CheckTick implements platform.Checker: it records market rounds as they
// complete and platform samples on the configured grid.
func (r *Recorder) CheckTick(p *platform.Platform, now sim.Time) {
	if r.Market != nil {
		if round := r.Market.Round(); round != r.lastRound {
			r.lastRound = round
			r.push(MarketDigest(r.Market), round)
		}
	}
	if r.SampleEvery > 0 && now >= r.nextAt {
		r.nextAt = now + r.SampleEvery
		r.push(PlatformDigest(p), 0)
	}
}

// RecordRound digests the market immediately — the manual hook for
// platform-less harnesses (the Table 1–3 reproductions).
func (r *Recorder) RecordRound(m *core.Market) { r.push(MarketDigest(m), m.Round()) }

// Record folds an arbitrary precomputed sample (rendered tables, custom
// serializations) into the trace.
func (r *Recorder) Record(sample uint64) { r.push(sample, 0) }

// Trace returns the recorded trace (valid once the run completed).
func (r *Recorder) Trace() *Trace { return &r.trace }

// Replay re-runs an experiment against a golden trace: run receives a
// fresh recorder with the golden's identity and must execute the same
// experiment; the recorded trace is then diffed sample by sample. The
// returned error localizes the first divergence.
func Replay(golden *Trace, run func(*Recorder)) error {
	rec := NewRecorder(golden.Name, golden.Seed, golden.Config, RecorderOptions{})
	run(rec)
	got := rec.Trace()
	if i, ok := golden.Diff(got); !ok {
		if i < len(golden.Digests) && i < len(got.Digests) {
			// Localize by market round, not just sample index: sample 0 is
			// market round 1 (rounds count from 1, samples from 0), and
			// interleaved platform samples shift every later index. The
			// re-run's trace always carries rounds; old goldens may not.
			if round := got.RoundAt(i); round > 0 {
				return fmt.Errorf("check: replay of %q diverged at sample %d (market round %d): %016x != %016x",
					golden.Name, i, round, got.Digests[i], golden.Digests[i])
			}
			return fmt.Errorf("check: replay of %q diverged at sample %d: %016x != %016x",
				golden.Name, i, got.Digests[i], golden.Digests[i])
		}
		return fmt.Errorf("check: replay of %q diverged in length: %d samples, golden has %d",
			golden.Name, len(got.Digests), len(golden.Digests))
	}
	return nil
}

var _ platform.Checker = (*Recorder)(nil)
