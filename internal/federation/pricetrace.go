// Package federation lifts the paper's intra-chip price economy one
// level up: R regions, each wrapping an internal/fleet instance with its
// own electricity-price trace, frequency-tiered SLA pricing for the work
// it serves (after Lučanin et al., "Performance-Based Pricing in
// Multi-Core Geo-Distributed Cloud Computing"), and a migration
// controller that moves queued load from the most expensive region to
// the cheapest when the effective compute-price divergence exceeds the
// migration cost.
//
// Everything stays replay-grade: region fleets derive their seeds from
// the federation seed via sim.DeriveSeed, migration decisions are pure
// functions of (traces, seed, epoch), per-region digests fold into a
// federation digest vector, and the fleet's zero-loss invariant extends
// across regions (see check.CheckFederationConservation).
package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Price-trace errors — structured sentinels so loaders and the API can
// classify what was wrong with a schedule instead of scraping messages.
var (
	// ErrTraceEmpty reports a schedule with no intervals.
	ErrTraceEmpty = errors.New("federation: price trace has no intervals")
	// ErrBadPrice reports a NaN, infinite, or negative $/kWh price.
	ErrBadPrice = errors.New("federation: price not finite and non-negative")
	// ErrBadWindow reports an interval whose [start,end) hour window is
	// inverted, empty, negative, or non-finite.
	ErrBadWindow = errors.New("federation: interval window invalid")
	// ErrUnsorted reports intervals out of ascending start order.
	ErrUnsorted = errors.New("federation: intervals not sorted by start hour")
	// ErrOverlap reports two intervals covering the same hour.
	ErrOverlap = errors.New("federation: intervals overlap")
)

// PriceInterval is one piecewise-constant segment of an electricity
// price schedule: [StartH, EndH) hours at PriceKWh $/kWh.
type PriceInterval struct {
	StartH   float64 `json:"start_h"`
	EndH     float64 `json:"end_h"`
	PriceKWh float64 `json:"price_kwh"`
}

// PriceTrace is a region's electricity price schedule. Lookups wrap
// modulo the trace period (the last interval's EndH), so a 24-hour
// diurnal schedule prices an arbitrarily long run; hours falling in a
// gap between intervals hold the most recent price (the grid doesn't
// stop billing between tariff rows).
type PriceTrace struct {
	Name      string          `json:"name,omitempty"`
	Intervals []PriceInterval `json:"intervals"`
}

// Validate checks the schedule: non-empty, finite non-negative prices,
// well-formed windows, ascending starts, no overlap. Every violation
// wraps one of the Err* sentinels.
func (p *PriceTrace) Validate() error {
	if len(p.Intervals) == 0 {
		return ErrTraceEmpty
	}
	for i, iv := range p.Intervals {
		if math.IsNaN(iv.PriceKWh) || math.IsInf(iv.PriceKWh, 0) || iv.PriceKWh < 0 {
			return fmt.Errorf("%w: interval %d price %v", ErrBadPrice, i, iv.PriceKWh)
		}
		if math.IsNaN(iv.StartH) || math.IsNaN(iv.EndH) ||
			math.IsInf(iv.StartH, 0) || math.IsInf(iv.EndH, 0) ||
			iv.StartH < 0 || iv.EndH <= iv.StartH {
			return fmt.Errorf("%w: interval %d [%v,%v)", ErrBadWindow, i, iv.StartH, iv.EndH)
		}
		if i > 0 {
			prev := p.Intervals[i-1]
			if iv.StartH < prev.StartH {
				return fmt.Errorf("%w: interval %d starts at %vh after interval %d at %vh",
					ErrUnsorted, i, iv.StartH, i-1, prev.StartH)
			}
			if iv.StartH < prev.EndH {
				return fmt.Errorf("%w: interval %d [%v,%v) overlaps interval %d [%v,%v)",
					ErrOverlap, i, iv.StartH, iv.EndH, i-1, prev.StartH, prev.EndH)
			}
		}
	}
	return nil
}

// PeriodH is the schedule's wrap period in hours (the last interval's
// end). Zero for an empty trace.
func (p *PriceTrace) PeriodH() float64 {
	if len(p.Intervals) == 0 {
		return 0
	}
	return p.Intervals[len(p.Intervals)-1].EndH
}

// PriceAt returns the $/kWh price at hour h of a validated trace,
// wrapping modulo PeriodH. Hours in a gap hold the most recent
// interval's price; hours before the first interval (after wrapping)
// hold the last interval's — the previous cycle's tail.
func (p *PriceTrace) PriceAt(h float64) float64 {
	n := len(p.Intervals)
	if n == 0 {
		return 0
	}
	period := p.PeriodH()
	if period > 0 && (h < 0 || h >= period) {
		h = math.Mod(h, period)
		if h < 0 {
			h += period
		}
	}
	// Linear scan: tariff schedules have a handful of rows; lookups are
	// per epoch, not per tick.
	last := p.Intervals[n-1].PriceKWh
	for i := 0; i < n; i++ {
		iv := p.Intervals[i]
		if h < iv.StartH {
			return last // gap before this interval: hold the previous price
		}
		if h < iv.EndH {
			return iv.PriceKWh
		}
		last = iv.PriceKWh
	}
	return last
}

// Diurnal synthesizes a day-shaped schedule: steps equal intervals over
// 24 hours priced base + amp·cos(2π(h−peakHour)/24), clamped at 0 —
// most expensive at peakHour, cheapest 12 hours away. Phase-shift
// peakHour across regions to model follow-the-sun pricing.
func Diurnal(name string, base, amp, peakHour float64, steps int) PriceTrace {
	if steps <= 0 {
		steps = 24
	}
	tr := PriceTrace{Name: name, Intervals: make([]PriceInterval, steps)}
	width := 24.0 / float64(steps)
	for i := 0; i < steps; i++ {
		mid := (float64(i) + 0.5) * width
		price := base + amp*math.Cos(2*math.Pi*(mid-peakHour)/24)
		if price < 0 {
			price = 0
		}
		tr.Intervals[i] = PriceInterval{
			StartH:   float64(i) * width,
			EndH:     float64(i+1) * width,
			PriceKWh: price,
		}
	}
	return tr
}

// ParsePriceTrace decodes and validates a schedule, rejecting unknown
// fields so typos in hand-written traces fail loudly.
func ParsePriceTrace(b []byte) (PriceTrace, error) {
	var tr PriceTrace
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		return PriceTrace{}, fmt.Errorf("federation: price trace: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return PriceTrace{}, err
	}
	return tr, nil
}
