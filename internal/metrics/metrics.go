// Package metrics collects the measurements the paper's evaluation reports:
// the fraction of time tasks miss their reference heart-rate range
// (Figures 4, 6, 7, 8), average power (Figure 5), energy, and time series
// for the behaviour plots.
package metrics

import (
	"math"
	"sort"

	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// Series is a time series of (time, value) samples.
type Series struct {
	Times  []sim.Time
	Values []float64
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Mean reports the arithmetic mean of the values (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max reports the maximum value (-Inf when empty).
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// Quantile reports the q-quantile of the values by the nearest-rank method
// on a sorted copy: the smallest value v such that at least q·n samples are
// ≤ v. q is clamped to [0,1]; an empty series reports NaN. Quantile(0) is
// the minimum, Quantile(1) the maximum, Quantile(0.5) the (lower) median —
// the tail statistics the behaviour figures and the telemetry overhead
// summaries report.
func (s *Series) Quantile(q float64) float64 {
	n := len(s.Values)
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// Min reports the minimum value (+Inf when empty).
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	return min
}

// Probe samples a running platform and accumulates the evaluation metrics.
// Attach it with Attach after the governor is set; it observes every tick
// after the warm-up period. EnableSeries adds a series grid that samples
// the board's observable state at a fixed period.
type Probe struct {
	p      *platform.Platform
	warmup sim.Time

	samples  int
	anyBelow int
	// records holds one record per task, indexed by task ID. IDs are dense
	// and follow creation order, so a task first measured later has a
	// larger ID and ID order is first-seen order.
	records []taskRecord

	powerSum   float64
	powerPeak  float64
	energyJ    float64
	lastEnergy float64

	// PowerSeries is the chip power on the series grid (nil until
	// EnableSeries).
	PowerSeries *Series
	grid        *grid
}

// taskRecord is one task's measurements over the measured interval.
type taskRecord struct {
	t       *task.Task // nil until the task is first measured
	samples int
	below   int // ticks below the minimum heart rate
	outside int // ticks outside the reference range
	hbBase  float64
	hbLast  float64
}

// NewProbe builds a probe for the platform that starts measuring after
// warmup (letting HRM windows fill and the market settle, as the paper's
// measurements do after boot).
func NewProbe(p *platform.Platform, warmup sim.Time) *Probe {
	return &Probe{p: p, warmup: warmup}
}

// record returns the record of t, creating it when t is first measured.
func (pr *Probe) record(t *task.Task) *taskRecord {
	for t.ID >= len(pr.records) {
		pr.records = append(pr.records, taskRecord{})
	}
	r := &pr.records[t.ID]
	if r.t == nil {
		*r = taskRecord{t: t, hbBase: t.Heartbeats()}
	}
	return r
}

// measured returns the record of t, or nil when t was never measured.
func (pr *Probe) measured(t *task.Task) *taskRecord {
	if t.ID < 0 || t.ID >= len(pr.records) || pr.records[t.ID].t != t {
		return nil
	}
	return &pr.records[t.ID]
}

// Attach registers the probe on the platform's engine (after the platform's
// own tick hook, so it observes post-governor state).
func (pr *Probe) Attach() {
	pr.p.Engine.AddHook(sim.TickFunc(pr.tick))
	pr.lastEnergy = pr.p.Meter().Joules()
}

func (pr *Probe) tick(now sim.Time) {
	if pr.grid != nil && now >= pr.grid.next {
		pr.sample(now)
	}
	if now <= pr.warmup {
		pr.lastEnergy = pr.p.Meter().Joules()
		return
	}
	pr.samples++
	below := false
	for _, t := range pr.p.Tasks() {
		r := pr.record(t)
		r.samples++
		r.hbLast = t.Heartbeats()
		hr := t.HeartRate(now)
		if hr < t.MinHR {
			below = true
			r.below++
			r.outside++
		} else if hr > t.MaxHR {
			r.outside++
		}
	}
	if below {
		pr.anyBelow++
	}
	w := pr.p.Power()
	pr.powerSum += w
	if w > pr.powerPeak {
		pr.powerPeak = w
	}
	pr.energyJ = pr.p.Meter().Joules() - pr.lastEnergy
}

// AnyBelowFrac reports the fraction of measured time during which at least
// one task's heart rate was below its minimum — the miss metric of
// Figures 4 and 6.
func (pr *Probe) AnyBelowFrac() float64 {
	if pr.samples == 0 {
		return 0
	}
	return float64(pr.anyBelow) / float64(pr.samples)
}

// BelowFrac reports the fraction of time one task spent below its minimum.
func (pr *Probe) BelowFrac(t *task.Task) float64 {
	r := pr.measured(t)
	if r == nil {
		return 0
	}
	return float64(r.below) / float64(r.samples)
}

// OutsideFrac reports the fraction of time one task spent outside its
// reference range (below min or above max) — the Figure 7 metric.
func (pr *Probe) OutsideFrac(t *task.Task) float64 {
	r := pr.measured(t)
	if r == nil {
		return 0
	}
	return float64(r.outside) / float64(r.samples)
}

// AveragePower reports the mean chip power over the measured interval.
func (pr *Probe) AveragePower() float64 {
	if pr.samples == 0 {
		return 0
	}
	return pr.powerSum / float64(pr.samples)
}

// PeakPower reports the highest sampled chip power.
func (pr *Probe) PeakPower() float64 { return pr.powerPeak }

// Energy reports joules consumed during the measured interval.
func (pr *Probe) Energy() float64 { return pr.energyJ }

// Samples reports how many ticks were measured.
func (pr *Probe) Samples() int { return pr.samples }

// HeartbeatsDelivered reports the total application progress (heartbeats
// across all tasks) during the measured interval — the numerator of the
// energy-efficiency view "joules per unit of delivered work". The sum runs
// in first-seen task order, so one run always reports the same bits.
func (pr *Probe) HeartbeatsDelivered() float64 {
	var total float64
	for i := range pr.records {
		if r := &pr.records[i]; r.t != nil {
			total += r.hbLast - r.hbBase
		}
	}
	return total
}
