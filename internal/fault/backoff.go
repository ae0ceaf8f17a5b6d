package fault

import "pricepower/internal/sim"

// Backoff computes bounded exponential retry delays with deterministic
// jitter — the governor-side half of graceful degradation: a V-F request
// the (injected) regulator refused is retried at Base, then Base·Factor,
// …, capped at Max, each delay shortened by a random fraction up to Jitter
// so a fleet of clusters backing off together doesn't re-converge on the
// same round (the classic thundering-herd decorrelation).
//
// Determinism: Next derives its jitter from a stateless hash of (Seed,
// attempt), so the same run replays the same delays whatever order the
// market's cluster phases call it in; NextFrom draws from an explicit
// seeded RNG instead for callers that already own one.
type Backoff struct {
	// Base is the first retry delay (required, > 0).
	Base sim.Time
	// Max caps the grown delay (default: 32·Base).
	Max sim.Time
	// Factor is the per-attempt growth (default 2).
	Factor float64
	// Jitter is the fraction of each delay randomized away, in [0,1]
	// (0 = none): the delay is uniform in [(1−Jitter)·d, d].
	Jitter float64
	// Seed decorrelates independent backoff instances (e.g. per cluster).
	Seed uint64
}

// grown returns the un-jittered delay for a 0-based attempt index.
func (b Backoff) grown(attempt int) float64 {
	f := b.Factor
	if f <= 1 {
		f = 2
	}
	max := b.Max
	if max <= 0 {
		max = 32 * b.Base
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= f
		if d >= float64(max) {
			return float64(max)
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	return d
}

// jittered applies the jitter fraction u ∈ [0,1) to a grown delay.
func (b Backoff) jittered(d, u float64) sim.Time {
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		d *= 1 - j*u
	}
	if d < 1 {
		d = 1
	}
	return sim.Time(d)
}

// Next returns the delay before retry attempt (0-based), deterministic in
// (Seed, attempt).
func (b Backoff) Next(attempt int) sim.Time {
	return b.jittered(b.grown(attempt), unit(hash3(b.Seed, 0xb0ff, uint64(attempt), 0)))
}

// NextFrom is Next with the jitter drawn from an explicit seeded RNG —
// for sequential callers threading one run-wide sim.Rand.
func (b Backoff) NextFrom(rng *sim.Rand, attempt int) sim.Time {
	return b.jittered(b.grown(attempt), rng.Float64())
}
