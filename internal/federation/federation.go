package federation

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pricepower/internal/check"
	"pricepower/internal/fault"
	"pricepower/internal/fleet"
	"pricepower/internal/sim"
	"pricepower/internal/task"
	"pricepower/internal/telemetry"
)

// Seed streams namespacing the federation's randomness off its seed
// (disjoint from the fleet's 0x..._0000 streams, which each region's
// fleet derives internally from its own derived seed).
const (
	// regionSeedStream derives the per-region fleet seeds:
	// DeriveSeed(DeriveSeed(Seed, regionSeedStream), regionID).
	regionSeedStream = 0xfed0_0000
	// migrateSeedStream seeds the migration controller's cooldown jitter.
	migrateSeedStream = 0xfed1_0000
	// outageSeedStream seeds per-region outage-magnitude gates when the
	// scenario itself carries no seed.
	outageSeedStream = 0xfed2_0000
)

// DefaultEpochBarriers is the barriers stepped per federation epoch
// when Config.EpochBarriers is zero.
const DefaultEpochBarriers = 4

// maxDecisionLog bounds the retained migration-decision history.
const maxDecisionLog = 64

// Config assembles a federation.
type Config struct {
	// Seed is the federation seed; every region fleet, the migration
	// controller, and outage gates derive their streams from it.
	Seed uint64
	// Batch is the barrier period shared by every region fleet
	// (default fleet.DefaultBatch). Uniform on purpose: regions step
	// the same virtual time per epoch, so cross-region accounting and
	// the conservation check compare like with like.
	Batch sim.Time
	// EpochBarriers is how many batch barriers each up region steps per
	// federation epoch (default DefaultEpochBarriers).
	EpochBarriers int
	// HoursPerSec converts virtual seconds to price-trace hours
	// (default 1.0: a 24-virtual-second run sweeps a full diurnal
	// cycle).
	HoursPerSec float64
	// Hysteresis is the submission router's sticky band (default
	// fleet.DefaultHysteresis): a challenger region must undercut the
	// current choice's effective price by this fraction.
	Hysteresis float64
	// Tiers is the SLA schedule, ordered highest MinPriority first
	// (default DefaultTiers).
	Tiers []Tier
	// Migration tunes the price-divergence controller.
	Migration MigrationConfig
	// Regions lists the member regions (≥ 1).
	Regions []RegionConfig
	// Check asserts the cross-region conservation invariant at every
	// epoch (and enables each fleet's own checker).
	Check bool
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = fleet.DefaultBatch
	}
	if c.EpochBarriers <= 0 {
		c.EpochBarriers = DefaultEpochBarriers
	}
	if c.HoursPerSec <= 0 {
		c.HoursPerSec = 1.0
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = fleet.DefaultHysteresis
	}
	if len(c.Tiers) == 0 {
		c.Tiers = DefaultTiers()
	}
	return c
}

// transitBatch is migrated work in flight between regions: evicted from
// its source, not yet delivered to dst — the "in-migration" term of the
// cross-region ledger.
type transitBatch struct {
	due  int // first epoch the destination may accept it
	dst  int
	subs []fleet.Submission
}

// Counters are the federation's own accounting totals.
type Counters struct {
	// Submitted counts external specs handed to some region's fleet
	// (routing never drops: a full region queue sheds inside the fleet,
	// counted there).
	Submitted uint64 `json:"submitted"`
	// Migrations counts controller firings; MigratedTasks the tasks
	// they moved; Delivered the migrated tasks already re-submitted at
	// their destination.
	Migrations    uint64 `json:"migrations"`
	MigratedTasks uint64 `json:"migrated_tasks"`
	Delivered     uint64 `json:"delivered"`
	// BoardCrashes counts crash errors absorbed while stepping region
	// fleets (each region supervises its own restarts).
	BoardCrashes uint64 `json:"board_crashes"`
}

// Federation owns R regions and steps them in federation epochs.
type Federation struct {
	mu  sync.Mutex
	cfg Config

	regions  []*Region
	epoch    int
	counters Counters

	// sched holds external arrivals until the first epoch starting at or
	// after their time.
	sched sim.Schedule[task.Spec]

	migrator  *Migrator
	transit   []transitBatch
	inTransit int
	decisions []Decision

	sticky int // router's current region choice (-1 before first pick)

	reg    *telemetry.Registry
	digest check.Digest // controller digest (FNV-1a over epoch decisions)
}

// New builds the federation: validates every region's price trace and
// outage schedule, then boots each region's fleet under its derived
// seed and the shared batch period.
func New(cfg Config) (*Federation, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Regions) == 0 {
		return nil, errors.New("federation: no regions configured")
	}
	f := &Federation{
		cfg:      cfg,
		migrator: NewMigrator(cfg.Migration, sim.DeriveSeed(cfg.Seed, migrateSeedStream)),
		sticky:   -1,
		reg:      telemetry.NewRegistry(),
		// Digests start from the seed, not the bare FNV offset: two runs
		// are only "the same replay" if they share the seed, even when
		// the observable trajectory happens not to depend on it.
		digest: check.NewDigest().Uint64(cfg.Seed),
	}
	regionSeed := sim.DeriveSeed(cfg.Seed, regionSeedStream)
	for i, rc := range cfg.Regions {
		if err := rc.Price.Validate(); err != nil {
			return nil, fmt.Errorf("region %d (%s): %w", i, rc.Name, err)
		}
		for _, ft := range rc.Outage.Faults {
			if !fault.IsRegionFault(ft.Type) {
				return nil, fmt.Errorf("region %d (%s): outage scenario carries non-region fault %q (board/platform faults belong in Fleet.Faults)", i, rc.Name, ft.Type)
			}
		}
		if err := rc.Outage.Validate(1, 1); err != nil {
			return nil, fmt.Errorf("region %d (%s): outage: %w", i, rc.Name, err)
		}
		if rc.Outage.Seed == 0 {
			rc.Outage.Seed = sim.DeriveSeed(cfg.Seed, outageSeedStream+uint64(i))
		}
		fc := rc.Fleet
		fc.Seed = sim.DeriveSeed(regionSeed, uint64(i))
		fc.Batch = cfg.Batch
		if cfg.Check {
			fc.Check = true
		}
		fl, err := fleet.New(fc)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("region %d (%s): %w", i, rc.Name, err)
		}
		r := newRegion(i, rc, fl, cfg.Tiers)
		r.digest = r.digest.Uint64(fc.Seed)
		f.regions = append(f.regions, r)
	}
	f.registerMetrics()
	return f, nil
}

func (f *Federation) registerMetrics() {
	f.reg.GaugeFunc("pricepower_fed_regions", "Regions in the federation.",
		func() float64 { return float64(len(f.regions)) })
	gauge := func(name, help string, read func() float64) {
		f.reg.GaugeFunc(name, help, func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return read()
		})
	}
	gauge("pricepower_fed_epochs", "Federation epochs stepped.",
		func() float64 { return float64(f.epoch) })
	gauge("pricepower_fed_submitted_total", "External specs routed to a region fleet.",
		func() float64 { return float64(f.counters.Submitted) })
	gauge("pricepower_fed_migrations_total", "Migration-controller firings.",
		func() float64 { return float64(f.counters.Migrations) })
	gauge("pricepower_fed_migrated_tasks_total", "Tasks moved between regions.",
		func() float64 { return float64(f.counters.MigratedTasks) })
	gauge("pricepower_fed_in_migration", "Migrated tasks currently in transit.",
		func() float64 { return float64(f.inTransit) })
	gauge("pricepower_fed_board_crashes_total", "Board-crash errors absorbed while stepping regions.",
		func() float64 { return float64(f.counters.BoardCrashes) })
	for _, r := range f.regions {
		r := r
		lbl := fmt.Sprintf("{region=%q}", r.Name)
		gauge("pricepower_fed_elec_price_kwh"+lbl, "Electricity price in force ($/kWh).",
			func() float64 { return r.elecPrice })
		gauge("pricepower_fed_eff_price"+lbl, "Effective compute price (elec × watts/PU).",
			func() float64 { return r.effPrice })
		gauge("pricepower_fed_served_frac"+lbl, "Delivered/demanded PU fraction last epoch.",
			func() float64 { return r.served })
		gauge("pricepower_fed_energy_kwh_total"+lbl, "Energy drawn (kWh).",
			func() float64 { return r.energyKWh })
		gauge("pricepower_fed_energy_cost_usd_total"+lbl, "Electricity spend ($).",
			func() float64 { return r.costUSD })
		gauge("pricepower_fed_revenue_usd_total"+lbl, "SLA revenue earned ($).",
			func() float64 { return r.revenueUSD })
		gauge("pricepower_fed_sla_violations_total"+lbl, "Task-epochs served below the tier promise.",
			func() float64 { return float64(r.violations) })
		gauge("pricepower_fed_region_down"+lbl, "1 while the region is in an outage window.",
			func() float64 {
				if r.down {
					return 1
				}
				return 0
			})
	}
}

// Registry is the federation-level metrics registry; region fleet
// registries merge in via ExportMetrics.
func (f *Federation) Registry() *telemetry.Registry { return f.reg }

// NumRegions reports the federation size.
func (f *Federation) NumRegions() int { return len(f.regions) }

// Regions exposes the region wrappers (read-only use: registries,
// fleets).
func (f *Federation) Regions() []*Region {
	return append([]*Region(nil), f.regions...)
}

// epochDur is one epoch's virtual duration.
func (f *Federation) epochDur() sim.Time {
	return sim.Time(f.cfg.EpochBarriers) * f.cfg.Batch
}

// epochHours is one epoch's length in price-trace hours.
func (f *Federation) epochHours() float64 {
	return f.epochDur().Seconds() * f.cfg.HoursPerSec
}

// Now reports federation virtual time: epochs stepped × epoch length.
// Region fleets frozen by outages fall behind this clock; prices are
// always read against it, never against a frozen fleet's clock.
func (f *Federation) Now() sim.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return sim.Time(f.epoch) * f.epochDur()
}

// Submit routes specs to region fleets immediately (cheapest effective
// price, sticky hysteresis) and returns how many were handed off (all
// of them — a full destination queue sheds inside the fleet).
func (f *Federation) Submit(specs ...task.Spec) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range specs {
		f.routeLocked(s)
	}
	return len(specs)
}

// SubmitTo pins specs to one region, bypassing the price router — the
// load-placement tool tests and the API's region field use to build
// backlogs where they want them. Returns the count accepted by the
// region's fleet.
func (f *Federation) SubmitTo(region int, specs ...task.Spec) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if region < 0 || region >= len(f.regions) {
		return 0, fmt.Errorf("federation: region %d outside [0,%d)", region, len(f.regions))
	}
	accepted := f.regions[region].submit(specs)
	f.counters.Submitted += uint64(len(specs))
	return accepted, nil
}

// SubmitAt schedules a spec for routing at the first epoch starting at
// or after the given federation virtual time.
func (f *Federation) SubmitAt(at sim.Time, spec task.Spec) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sched.Push(at, spec)
}

// routeLocked places one external spec: cheapest effective price among
// up regions, sticky until a challenger undercuts by Hysteresis. With
// every region down it routes to the cheapest anyway — the frozen
// fleet's admission queue holds the work for the ledger. Returns 1 if
// the region's fleet accepted the spec, 0 if its queue shed it.
func (f *Federation) routeLocked(spec task.Spec) int {
	best := f.pickLocked()
	f.counters.Submitted++
	return f.regions[best].submit([]task.Spec{spec})
}

func (f *Federation) pickLocked() int {
	best, bestUp := -1, false
	for i, r := range f.regions {
		up := !r.down
		switch {
		case best < 0, up && !bestUp:
			best, bestUp = i, up
		case up == bestUp && r.effPrice < f.regions[best].effPrice:
			best = i
		}
	}
	// Sticky: keep the previous choice unless the winner undercuts it
	// by the hysteresis band (and the previous choice is still up).
	if f.sticky >= 0 && f.sticky != best {
		prev := f.regions[f.sticky]
		if !prev.down && bestUp &&
			f.regions[best].effPrice > (1-f.cfg.Hysteresis)*prev.effPrice {
			best = f.sticky
		}
	}
	f.sticky = best
	return best
}

// Step runs one federation epoch: refresh outage states and prices,
// deliver due migrations, release scheduled arrivals, step every up
// region EpochBarriers barriers, fold accounting and digests, then let
// the migration controller decide. Board-crash errors are absorbed
// (each region supervises restarts) and returned joined, like
// fleet.Step: callers filter with fleet.CrashErrors.
func (f *Federation) Step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch++
	epoch := f.epoch

	// 1. Outage windows and the prices in force, read off the
	// federation clock (a frozen fleet's clock halts; its tariff
	// doesn't).
	startH := float64(epoch-1) * f.epochHours()
	for _, r := range f.regions {
		r.down = r.outage.OutageAt(r.ID, epoch)
		r.elecPrice = r.price.PriceAt(startH)
		r.effPrice = r.elecPrice * r.effWatts()
	}

	// 2. Deliver migrations whose transfer latency has elapsed. A down
	// destination redirects to the cheapest up region (deterministic);
	// with nowhere up the batch waits another epoch.
	f.deliverLocked(epoch)

	// 3. Release scheduled arrivals due by this epoch's start, in
	// (time, submission) order, and route them.
	f.releaseLocked(epoch)

	// 4. Step every up region through the epoch's barriers, in region
	// order — serialized, so the schedule is deterministic.
	var crashes []error
	for b := 0; b < f.cfg.EpochBarriers; b++ {
		for _, r := range f.regions {
			if r.down {
				continue
			}
			if err := f.absorbLocked(r, r.fl.Step(), &crashes); err != nil {
				return err
			}
		}
	}

	// 5. Economics and per-region digests.
	epochH := f.epochHours()
	for _, r := range f.regions {
		r.account(epoch, epochH, r.elecPrice)
	}

	// 6. Migration decision on this epoch's observations.
	eff := make([]float64, len(f.regions))
	up := make([]bool, len(f.regions))
	queued := make([]int, len(f.regions))
	for i, r := range f.regions {
		eff[i] = r.effPrice
		up[i] = !r.down
		queued[i] = r.queueLen // account-time depth: the digested observation
	}
	d := f.migrator.Decide(epoch, eff, up, queued)
	if d.Move {
		subs := f.regions[d.Src].evict(d.Tasks)
		d.Tasks = len(subs)
		if d.Tasks > 0 {
			f.transit = append(f.transit, transitBatch{
				due: epoch + f.migrator.cfg.LatencyEpochs, dst: d.Dst, subs: subs,
			})
			f.inTransit += d.Tasks
			f.counters.Migrations++
			f.counters.MigratedTasks += uint64(d.Tasks)
		} else {
			d.Move = false
		}
	}
	f.decisions = append(f.decisions, d)
	if len(f.decisions) > maxDecisionLog {
		f.decisions = f.decisions[len(f.decisions)-maxDecisionLog:]
	}

	// 7. Controller digest + conservation.
	move := uint64(0)
	if d.Move {
		move = 1
	}
	f.digest = f.digest.Words(
		uint64(epoch), move, uint64(d.Src+1), uint64(d.Dst+1), uint64(d.Tasks),
		uint64(f.inTransit), f.counters.Submitted, f.counters.MigratedTasks,
	)
	if f.cfg.Check {
		if err := checkConservationLocked(f); err != nil {
			return err
		}
	}
	if len(crashes) > 0 {
		return errors.Join(crashes...)
	}
	return nil
}

// absorbLocked counts and collects a region fleet's crash-only error
// (the region supervises its own restarts); any other error comes back
// wrapped with the region's name.
func (f *Federation) absorbLocked(r *Region, err error, crashes *[]error) error {
	if err == nil {
		return nil
	}
	if cs, only := fleet.CrashErrors(err); only {
		f.counters.BoardCrashes += uint64(len(cs))
		*crashes = append(*crashes, err)
		return nil
	}
	return fmt.Errorf("federation: region %s: %w", r.Name, err)
}

// Flush collects every region fleet's outstanding bounded-skew barriers
// (fleet.Flush), bringing the published state fully current: the tail a
// run leaves in flight when it stops. Crash errors are absorbed and
// returned joined, like Step's.
func (f *Federation) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var crashes []error
	for _, r := range f.regions {
		if err := f.absorbLocked(r, r.fl.Flush(), &crashes); err != nil {
			return err
		}
	}
	return errors.Join(crashes...)
}

// deliverLocked re-submits due transit batches at their destinations.
func (f *Federation) deliverLocked(epoch int) {
	if len(f.transit) == 0 {
		return
	}
	keep := f.transit[:0]
	for _, tb := range f.transit {
		if tb.due > epoch {
			keep = append(keep, tb)
			continue
		}
		dst := tb.dst
		if f.regions[dst].down {
			dst = f.cheapestUpLocked()
			if dst < 0 {
				// Nowhere to land: hold in transit another epoch.
				tb.due = epoch + 1
				keep = append(keep, tb)
				continue
			}
		}
		specs := make([]task.Spec, len(tb.subs))
		for i := range tb.subs {
			specs[i] = tb.subs[i].Spec
		}
		f.regions[dst].submit(specs)
		f.inTransit -= len(tb.subs)
		f.counters.Delivered += uint64(len(tb.subs))
	}
	f.transit = keep
}

func (f *Federation) cheapestUpLocked() int {
	best := -1
	for i, r := range f.regions {
		if r.down {
			continue
		}
		if best < 0 || r.effPrice < f.regions[best].effPrice {
			best = i
		}
	}
	return best
}

// releaseLocked routes scheduled arrivals due by the epoch's start, in
// (time, submission order).
func (f *Federation) releaseLocked(epoch int) {
	start := sim.Time(epoch-1) * f.epochDur()
	for at, ok := f.sched.Next(); ok && at <= start; at, ok = f.sched.Next() {
		f.routeLocked(f.sched.Pop())
	}
}

// FederationAccounting implements check.FederationLedger: accepted =
// external submissions − every region's sheds; the placement terms sum
// each fleet's ledger (live, queued, in-flight, orphaned, completed)
// plus the in-migration count.
func (f *Federation) FederationAccounting() check.Ledger {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.accountingLocked()
}

func (f *Federation) accountingLocked() check.Ledger {
	var l check.Ledger
	var shed uint64
	for _, r := range f.regions {
		fl := r.fl.FleetAccounting()
		l.Live += fl.Live
		l.Queued += fl.Queued
		l.InFlight += fl.InFlight
		l.Orphaned += fl.Orphaned
		l.Completed += fl.Completed
		shed += r.fl.StateSnapshot().Counters.Shed
	}
	l.Accepted = f.counters.Submitted - shed
	l.Migrating = uint64(f.inTransit)
	return l
}

// checkConservationLocked is the epoch-path checker: same identity as
// check.CheckFederationConservation without re-taking f.mu.
func checkConservationLocked(f *Federation) error {
	if err := f.accountingLocked().Err("federation"); err != nil {
		return fmt.Errorf("federation: epoch %d: %w", f.epoch, err)
	}
	return nil
}

// DigestVector snapshots the replay digests: index 0 is the controller
// digest, index i+1 region i's.
func (f *Federation) DigestVector() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]uint64, 0, len(f.regions)+1)
	out = append(out, uint64(f.digest))
	for _, r := range f.regions {
		out = append(out, uint64(r.digest))
	}
	return out
}

// State is the federation-wide snapshot served at /state.
type State struct {
	Epoch     int           `json:"epoch"`
	Time      sim.Time      `json:"t"`
	Counters  Counters      `json:"counters"`
	InTransit int           `json:"in_transit"`
	Regions   []RegionState `json:"regions"`
	Decisions []Decision    `json:"decisions"`
	Digests   []string      `json:"digests"`
}

// StateSnapshot publishes the federation view.
func (f *Federation) StateSnapshot() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := State{
		Epoch:     f.epoch,
		Time:      sim.Time(f.epoch) * f.epochDur(),
		Counters:  f.counters,
		InTransit: f.inTransit,
		Decisions: append([]Decision(nil), f.decisions...),
	}
	st.Digests = append(st.Digests, hex16(f.digest))
	for _, r := range f.regions {
		st.Regions = append(st.Regions, r.state())
		st.Digests = append(st.Digests, hex16(r.digest))
	}
	return st
}

// ExportMetrics merges the federation registry with every region's
// fleet export relabeled region="<name>" (each already carrying its
// board labels — the stacked-label path AppendLabeled exists for).
func (f *Federation) ExportMetrics() []telemetry.Series {
	merged := f.reg.Export()
	for _, r := range f.regions {
		merged = telemetry.AppendLabeled(merged, r.fl.ExportMetrics(), "region", r.Name)
	}
	return merged
}

// Close stops every region fleet.
func (f *Federation) Close() { f.close() }

func (f *Federation) close() {
	for _, r := range f.regions {
		if r != nil && r.fl != nil {
			r.fl.Close()
		}
	}
}

func hex16(d check.Digest) string { return fmt.Sprintf("%016x", uint64(d)) }

func itoa(i int) string { return strconv.Itoa(i) }
