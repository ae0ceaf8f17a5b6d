package core

import "pricepower/internal/telemetry"

// TaskAgent is the buyer representing one task (§3.2.1). Each round the
// governor injects the task's current demand and the supply it observed;
// the agent then revises its bid:
//
//	b_t ← clamp(b_t + (d_t − s_t)·P_c,  b_min,  a_t + m_t)
//
// (Eq. 1 with the textual cap: "the bidding amount is capped by the
// summation of allowance a_t and savings m_t"). Unspent allowance
// accumulates as savings m_t up to SavingsCap × a_t.
type TaskAgent struct {
	ID       int
	Priority int

	// Demand is d_t on the task's current core type, set by the governor
	// before each round.
	Demand float64
	// Observed is the supply s_t the task received, set by the governor
	// before each round. (After price discovery the market also computes the
	// purchased supply; governors may feed that back or use measurements.)
	Observed float64

	allowance float64
	savings   float64
	bid       float64
	purchased float64
	// savingsBasis is the allowance the last savings clamp was judged
	// against. Frozen clusters skip bidding (and with it the clamp) while
	// allowances are still redistributed, so m_t ≤ SavingsCap·a_t only
	// holds against this snapshot, not against the live a_t.
	savingsBasis float64

	// core is the agent's current seller, maintained by Market.AddTask /
	// MoveTask / RemoveTask so detaching never sweeps the hierarchy.
	core *CoreAgent
}

// Core returns the core agent currently selling to this task agent (nil
// after RemoveTask).
func (a *TaskAgent) Core() *CoreAgent { return a.core }

// Bid reports the agent's current bid b_t.
func (a *TaskAgent) Bid() float64 { return a.bid }

// Allowance reports the agent's current allowance a_t.
func (a *TaskAgent) Allowance() float64 { return a.allowance }

// Savings reports the agent's current savings m_t.
func (a *TaskAgent) Savings() float64 { return a.savings }

// Purchased reports the supply bought in the last price-discovery step.
func (a *TaskAgent) Purchased() float64 { return a.purchased }

// Satisfied reports whether the purchased supply covers the demand.
func (a *TaskAgent) Satisfied() bool { return a.purchased >= a.Demand-1e-9 }

// Eq. 1 clamp outcomes, reported by reviseBid so the telemetry layer can
// count how often the market saturates at either bound (a floor-saturated
// market has lost its deflation signal; see ClusterAgent.controlPrice).
const (
	clampNone = iota
	clampFloor
	clampCap
)

// reviseBid applies Eq. 1 given the price observed in the previous round
// and reports which clamp, if any, bounded the revision. An agent with no
// demand at all (finished or fully idle task) has nothing to buy: its bid
// decays toward the floor — Eq. 1 alone would freeze it at its last value
// (d−s = 0−0) and hold the price, and with it the V-F level, up forever.
func (a *TaskAgent) reviseBid(price float64, cfg *Config) int {
	if a.Demand <= 0 {
		a.bid /= 2
		if a.bid < cfg.MinBid {
			a.bid = cfg.MinBid
		}
		return clampNone
	}
	b := a.bid + (a.Demand-a.Observed)*price
	out := clampNone
	if max := a.allowance + a.savings; b > max {
		b = max
		out = clampCap
	}
	if b < cfg.MinBid {
		b = cfg.MinBid
		out = clampFloor
	}
	a.bid = b
	return out
}

// settleSavings updates m_t after bidding: unspent allowance is saved,
// overspending draws savings down, and the balance is clamped to
// [0, SavingsCap·a_t].
func (a *TaskAgent) settleSavings(cfg *Config) {
	a.savingsBasis = a.allowance
	a.savings += a.allowance - a.bid
	if a.savings < 0 {
		a.savings = 0
	}
	if cap := cfg.SavingsCap * a.allowance; a.savings > cap {
		a.savings = cap
	}
}

// SavingsBasis reports the allowance the last savings clamp was judged
// against — the reference for the m_t ≤ SavingsCap·a_t invariant.
func (a *TaskAgent) SavingsBasis() float64 { return a.savingsBasis }

// CoreAgent is the seller for one core (§3.2.1): it discovers the price of
// the core's PUs from the task agents' bids and distributes supply in
// proportion to the bids. It also fans the core allowance out to its task
// agents in proportion to priority.
type CoreAgent struct {
	ID    int
	Tasks []*TaskAgent

	price       float64
	basePrice   float64
	allowance   float64
	supply      float64 // supply the last price discovery cleared against
	cleared     float64 // Σ s_t actually handed out at the last discovery
	distributed float64 // Σ a_t actually handed out at the last fan-out

	// Eq. 1 clamp tallies. Plain fields on purpose: runBids is the market's
	// hottest loop, each core is touched by exactly one goroutine within a
	// round, and the sequential round tail folds the sums into the telemetry
	// registry (Market.foldTelemetry) — so the hot path pays no atomics.
	clampFloor uint64
	clampCap   uint64
}

// Price reports the last discovered price P_c per PU.
func (c *CoreAgent) Price() float64 { return c.price }

// BasePrice reports the reference price inflation/deflation is measured
// against; it resets whenever the cluster's V-F level changes (§3.2.2).
func (c *CoreAgent) BasePrice() float64 { return c.basePrice }

// Allowance reports the core allowance A_c.
func (c *CoreAgent) Allowance() float64 { return c.allowance }

// Demand reports D_c, the sum of its tasks' demands.
func (c *CoreAgent) Demand() float64 {
	var d float64
	for _, t := range c.Tasks {
		d += t.Demand
	}
	return d
}

// PrioritySum reports R_c.
func (c *CoreAgent) PrioritySum() int {
	var r int
	for _, t := range c.Tasks {
		r += t.Priority
	}
	return r
}

// distributeAllowance splits A_c among the task agents proportionally to
// priority: a_t = A_c · r_t / R_c.
func (c *CoreAgent) distributeAllowance() {
	r := c.PrioritySum()
	if r == 0 {
		c.distributed = c.allowance // nothing to fan out
		return
	}
	var sum float64
	for _, t := range c.Tasks {
		t.allowance = c.allowance * float64(t.Priority) / float64(r)
		sum += t.allowance
	}
	c.distributed = sum
}

// DistributedAllowance reports Σ a_t actually handed to the task agents at
// the last fan-out. Budget conservation (Σ a_t = A_c) must be judged on
// this snapshot rather than on a live sum over Tasks: the LBT module moves
// agents — and their allowances — between cores after distribution within
// the same governor tick.
func (c *CoreAgent) DistributedAllowance() float64 { return c.distributed }

// runBids lets every task agent revise its bid against the price of the
// previous round. Per-task bid events are emitted only when the caller's
// emitter has the high-volume KindBid enabled (off by default — at Table 7
// scale this loop runs for thousands of tasks per round). cfg is the
// market's own configuration, shared read-only by every cluster — nothing
// down this chain may write through it.
func (c *CoreAgent) runBids(cfg *Config, em *telemetry.Emitter, cluster, round int) {
	emitBids := em.Enabled(telemetry.KindBid)
	for _, t := range c.Tasks {
		prev := t.bid
		switch t.reviseBid(c.price, cfg) {
		case clampFloor:
			c.clampFloor++
		case clampCap:
			c.clampCap++
		}
		t.settleSavings(cfg)
		if emitBids {
			ev := telemetry.E(telemetry.KindBid)
			ev.Round, ev.Cluster, ev.Core, ev.Task = round, cluster, c.ID, t.ID
			ev.Value, ev.Prev = t.bid, prev
			em.Emit(ev)
		}
	}
}

// DiscoveredSupply reports the supply the last price discovery cleared
// against. The cluster agent may move the V-F level in the same round,
// *after* discovery, so clearing invariants (Σ s_t = S_c) must be judged
// against this value, not the live supply.
func (c *CoreAgent) DiscoveredSupply() float64 { return c.supply }

// ClearedSupply reports Σ s_t actually distributed at the last discovery.
// With a positive price it must equal DiscoveredSupply (the market clears);
// task agents may migrate to other cores later in the round, which moves
// their purchases with them, so the pair is snapshotted here at discovery
// time for the invariant checker.
func (c *CoreAgent) ClearedSupply() float64 { return c.cleared }

// discover performs price discovery and the purchase step: P_c = Σ b_t /
// S_c, s_t = b_t / P_c. With supply S_c == 0 (powered-down cluster) or no
// bids, the price collapses to 0 and nobody purchases.
func (c *CoreAgent) discover(supply float64) {
	c.supply = supply
	var sum float64
	for _, t := range c.Tasks {
		sum += t.bid
	}
	if supply <= 0 || sum <= 0 {
		c.price = 0
		c.cleared = 0
		for _, t := range c.Tasks {
			t.purchased = 0
		}
		return
	}
	c.price = sum / supply
	c.cleared = 0
	for _, t := range c.Tasks {
		t.purchased = t.bid / c.price
		c.cleared += t.purchased
	}
}

// Oversupply reports S_c − D_c, how many PUs the core currently supplies
// beyond its tasks' aggregate demand (the LBT module targets the most
// oversupplied unconstrained core).
func (c *CoreAgent) Oversupply(supply float64) float64 { return supply - c.Demand() }

// atBidFloor reports whether every task agent on the core bids the minimum
// — the deflation signal's saturation point: prices can no longer fall even
// though nobody wants the supply.
func (c *CoreAgent) atBidFloor(cfg *Config) bool {
	if len(c.Tasks) == 0 {
		return false
	}
	for _, t := range c.Tasks {
		if t.bid > cfg.MinBid+1e-12 {
			return false
		}
	}
	return true
}
