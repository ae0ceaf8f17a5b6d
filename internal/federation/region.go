package federation

import (
	"math"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/fleet"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// nominalWattsPerPU prices a region that has not yet delivered any work:
// until the efficiency EWMA has an observation, effective price =
// electricity price × this nominal efficiency, so idle regions compare
// on electricity price alone instead of dividing by ~0 demand.
const nominalWattsPerPU = 0.003

// effEWMAAlpha smooths the watts-per-PU estimate: new observations move
// the estimate by this fraction, so one noisy epoch cannot flip the
// migration controller's ordering by itself.
const effEWMAAlpha = 0.3

// RegionConfig assembles one region.
type RegionConfig struct {
	// Name labels the region in metrics, digests, and the API
	// (default "r<index>").
	Name string
	// Fleet is the region's board-fleet config. Seed and Batch are
	// overridden by the federation (derived seed stream, uniform batch);
	// everything else — boards, TDP, skew, board faults,
	// restarts — is the region's own.
	Fleet fleet.Config
	// Price is the region's validated electricity price schedule.
	Price PriceTrace
	// Outage schedules region-level fault windows (fault.RegionOutage,
	// in federation epochs).
	Outage fault.Scenario
}

// Region wraps one fleet with its price trace and SLA accounting. All
// mutation happens under the federation's lock, in epoch order.
type Region struct {
	ID   int    `json:"id"`
	Name string `json:"name"`

	fl     *fleet.Fleet
	price  PriceTrace
	outage fault.Scenario
	tiers  []Tier

	// down mirrors the outage schedule for the current epoch.
	down bool
	// tierCounts tracks resident tasks per tier (accepted − evicted):
	// the revenue base. Sheds never enter; migration out decrements.
	tierCounts []uint64
	// wattsPerPU is the efficiency EWMA (0 until first observation).
	wattsPerPU float64

	// Per-epoch observations (refreshed by account). queueLen is the
	// evictable depth at accounting time — the migration controller
	// reads this, not a fresh snapshot, so its decisions are a function
	// of exactly the state the region digest folded.
	elecPrice float64
	effPrice  float64
	served    float64
	queueLen  int

	// Cumulative accounting.
	energyKWh  float64
	costUSD    float64
	revenueUSD float64
	violations uint64

	// Per-epoch distributions, registered in the federation registry.
	revHist  *telemetry.Histogram
	costHist *telemetry.Histogram

	// digest folds this region's epoch observations (FNV-1a).
	digest check.Digest
}

func newRegion(id int, rc RegionConfig, fl *fleet.Fleet, tiers []Tier) *Region {
	name := rc.Name
	if name == "" {
		name = "r" + itoa(id)
	}
	return &Region{
		ID: id, Name: name,
		fl: fl, price: rc.Price, outage: rc.Outage, tiers: tiers,
		tierCounts: make([]uint64, len(tiers)),
		digest:     check.NewDigest(),
	}
}

// Fleet exposes the wrapped fleet (registries, tracers — read-only use).
func (r *Region) Fleet() *fleet.Fleet { return r.fl }

// submit hands specs to the region's fleet one at a time so tier
// residency can be attributed per accepted spec (the fleet sheds
// against its queue cap internally).
func (r *Region) submit(specs []task.Spec) (accepted int) {
	for _, s := range specs {
		if r.fl.Submit(s) == 1 {
			r.tierCounts[TierFor(r.tiers, s.Priority)]++
			accepted++
		}
	}
	return accepted
}

// evict pulls up to max queued submissions out of the fleet and off the
// region's tier ledger — the migration source path.
func (r *Region) evict(max int) []fleet.Submission {
	out := r.fl.EvictQueued(max)
	for i := range out {
		t := TierFor(r.tiers, out[i].Spec.Priority)
		if r.tierCounts[t] > 0 {
			r.tierCounts[t]--
		}
	}
	return out
}

// account folds one epoch's economics: energy drawn against the
// electricity price, SLA revenue against delivered performance, the
// efficiency EWMA, and the region digest. epochH is the epoch length in
// trace-hours; elec the $/kWh price in force.
func (r *Region) account(epoch int, epochH, elec float64) {
	st := r.fl.StateSnapshot()
	var demand, delivered, watts float64
	for i := range st.Boards {
		b := &st.Boards[i]
		demand += b.DemandPU
		d := b.SupplyPU
		if b.DemandPU < d {
			d = b.DemandPU
		}
		delivered += d
		watts += b.PowerW
	}
	served := 1.0
	if demand > 0 {
		served = delivered / demand
	}
	if r.down {
		// A region in outage steps no barriers: it draws no accounted
		// energy and delivers nothing, whatever its last snapshot says.
		watts, delivered, served = 0, 0, 0
	}
	if delivered > 1e-9 {
		inst := watts / delivered
		if r.wattsPerPU == 0 {
			r.wattsPerPU = inst
		} else {
			r.wattsPerPU += effEWMAAlpha * (inst - r.wattsPerPU)
		}
	}
	energy := watts / 1000 * epochH
	cost := energy * elec
	revenue := 0.0
	for t, n := range r.tierCounts {
		if n == 0 {
			continue
		}
		tier := r.tiers[t]
		revenue += float64(n) * tier.RatePerTaskHour * epochH * revenueFactor(served, tier.MinServedFrac)
		if served < tier.MinServedFrac {
			r.violations += n
		}
	}
	r.elecPrice = elec
	r.effPrice = elec * r.effWatts()
	r.served = served
	r.queueLen = st.QueueLen
	r.energyKWh += energy
	r.costUSD += cost
	r.revenueUSD += revenue
	r.revHist.Record(revenue)
	r.costHist.Record(cost)

	down := uint64(0)
	if r.down {
		down = 1
	}
	c := st.Counters
	r.digest = r.digest.Words(
		uint64(epoch), down,
		math.Float64bits(elec), math.Float64bits(r.effPrice),
		math.Float64bits(served), math.Float64bits(energy), math.Float64bits(revenue),
		c.Submitted, c.Routed, c.Shed, c.Evicted, c.Orphaned, c.Crashes, c.Stalls, c.Restarts,
		uint64(st.QueueLen), uint64(st.Live()), uint64(st.InFlight), uint64(st.Orphaned),
		uint64(st.Completed),
	)
}

// effWatts is the efficiency estimate the effective price uses: the
// EWMA once observed, the shared nominal before that.
func (r *Region) effWatts() float64 {
	if r.wattsPerPU > 0 {
		return r.wattsPerPU
	}
	return nominalWattsPerPU
}

// RegionState is the /regions API view of one region.
type RegionState struct {
	ID         int               `json:"id"`
	Name       string            `json:"name"`
	Down       bool              `json:"down"`
	ElecPrice  float64           `json:"elec_price_kwh"`
	EffPrice   float64           `json:"eff_price"`
	Served     float64           `json:"served_frac"`
	EnergyKWh  float64           `json:"energy_kwh"`
	CostUSD    float64           `json:"cost_usd"`
	RevenueUSD float64           `json:"revenue_usd"`
	Violations uint64            `json:"sla_violations"`
	Tiers      map[string]uint64 `json:"tier_tasks"`
	QueueLen   int               `json:"queue_len"`
	Live       int               `json:"live"`
	Completed  int               `json:"completed"` // tasks finished and retired in the region
	Counters   fleet.Counters    `json:"counters"`
	Digest     string            `json:"digest"`
}

func (r *Region) state() RegionState {
	st := r.fl.StateSnapshot()
	tiers := make(map[string]uint64, len(r.tiers))
	for t, n := range r.tierCounts {
		tiers[r.tiers[t].Name] = n
	}
	return RegionState{
		ID: r.ID, Name: r.Name, Down: r.down,
		ElecPrice: r.elecPrice, EffPrice: r.effPrice, Served: r.served,
		EnergyKWh: r.energyKWh, CostUSD: r.costUSD, RevenueUSD: r.revenueUSD,
		Violations: r.violations, Tiers: tiers,
		QueueLen: st.QueueLen, Live: st.Live(), Completed: st.Completed, Counters: st.Counters,
		Digest: hex16(r.digest),
	}
}
