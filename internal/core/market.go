package core

import (
	"fmt"
	"math"

	"pricepower/internal/telemetry"
)

// State is the chip agent's power-state classification (§3.2.3).
type State int

const (
	// Normal: W < Wth. The chip agent grows the allowance toward satisfying
	// all demand.
	Normal State = iota
	// Threshold: Wth ≤ W < Wtdp, the buffer zone. The allowance is held
	// constant so an overloaded system stabilizes here.
	Threshold
	// Emergency: W ≥ Wtdp. Allowances are curbed proportionally to the TDP
	// excursion.
	Emergency
)

// String names the state.
func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Threshold:
		return "threshold"
	case Emergency:
		return "emergency"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Market is the assembled agent hierarchy with the chip agent's money
// control on top.
type Market struct {
	cfg      Config
	Clusters []*ClusterAgent

	// coreOf and clusterOf index the agent hierarchy by global core ID
	// (assigned densely from 0 in NewMarket), making CoreByID — and with it
	// AddTask/MoveTask — O(1) instead of a hierarchy sweep. Table-7-scale
	// markets (256 clusters × 16 cores) call these on every governor round.
	coreOf    []*CoreAgent
	clusterOf []*ClusterAgent

	allowance   float64
	distributed float64 // Σ A_v actually handed out at the last fan-out
	state       State
	wAvg        float64 // smoothed chip power for state classification
	wSeeded     bool    // wAvg holds a real sample (0 W is a legitimate reading)
	round       int
	nextID      int

	shares []allowanceShare // distributeAllowance's reusable scratch

	// Sensor-health bookkeeping (graceful degradation, DESIGN.md §9). The
	// chip agent validates each power reading before classification; while
	// readings are untrusted it holds the last good value (bounded by
	// SensorStaleRounds) and tightens the Wth/Wtdp boundaries by
	// DegradedGuard. Clean runs never reject a reading, so digests and
	// goldens are unchanged.
	degraded       bool
	lastGoodW      float64
	lastGoodSeeded bool
	staleRounds    int
	healthyStreak  int
	sensorRejects  uint64

	// Telemetry (nil/inert when detached — see SetTelemetry).
	tel         *telemetry.Emitter
	roundsC     *telemetry.Counter
	throttleThC *telemetry.Counter
	throttleEmC *telemetry.Counter
	clampFloorC *telemetry.Counter
	clampCapC   *telemetry.Counter
	rejectsC    *telemetry.Counter
}

// NewMarket builds a market over the given cluster controls; coresPer[i]
// core agents are created for cluster i.
func NewMarket(cfg Config, controls []ClusterControl, coresPer []int) *Market {
	if len(controls) != len(coresPer) {
		panic("core: controls and coresPer length mismatch")
	}
	cfg = cfg.withDefaults()
	m := &Market{cfg: cfg, allowance: cfg.InitialAllowance}
	coreID := 0
	for i, ctl := range controls {
		v := &ClusterAgent{ID: i, Control: ctl}
		for j := 0; j < coresPer[i]; j++ {
			c := &CoreAgent{ID: coreID}
			v.Cores = append(v.Cores, c)
			m.coreOf = append(m.coreOf, c)
			m.clusterOf = append(m.clusterOf, v)
			coreID++
		}
		m.Clusters = append(m.Clusters, v)
	}
	return m
}

// Config returns the market's (defaulted) configuration.
func (m *Market) Config() Config { return m.cfg }

// Allowance reports the global allowance A.
func (m *Market) Allowance() float64 { return m.allowance }

// SetAllowance overrides A (used when seeding experiments mid-flight).
func (m *Market) SetAllowance(a float64) { m.allowance = a }

// DistributedAllowance reports Σ A_v actually handed to the cluster agents
// at the last fan-out — the top-level budget-conservation snapshot (see
// CoreAgent.DistributedAllowance for why a live sum is wrong).
func (m *Market) DistributedAllowance() float64 { return m.distributed }

// State reports the chip agent's classification of the last round.
func (m *Market) State() State { return m.state }

// SmoothedPower reports the EWMA-smoothed chip power the state machine
// classifies (0 before the first round).
func (m *Market) SmoothedPower() float64 { return m.wAvg }

// Round reports how many bid rounds have run.
func (m *Market) Round() int { return m.round }

// Degraded reports whether the chip agent currently distrusts its power
// sensor (readings failing validation; guard band tightened).
func (m *Market) Degraded() bool { return m.degraded }

// SensorRejects reports how many power readings validation has rejected.
func (m *Market) SensorRejects() uint64 { return m.sensorRejects }

// LastGoodPower reports the last power reading that passed validation.
func (m *Market) LastGoodPower() float64 { return m.lastGoodW }

// EffectiveWtdp is the TDP boundary the state machine currently classifies
// against: the configured Wtdp, tightened by DegradedGuard while power
// readings are untrusted.
func (m *Market) EffectiveWtdp() float64 {
	if m.degraded {
		return m.cfg.Wtdp * m.cfg.DegradedGuard
	}
	return m.cfg.Wtdp
}

// EffectiveWth is the threshold boundary currently in force (see
// EffectiveWtdp).
func (m *Market) EffectiveWth() float64 {
	if m.degraded {
		return m.cfg.Wth * m.cfg.DegradedGuard
	}
	return m.cfg.Wth
}

// Cluster returns cluster agent i.
func (m *Market) Cluster(i int) *ClusterAgent { return m.Clusters[i] }

// CoreByID finds a core agent by its global ID in O(1).
func (m *Market) CoreByID(id int) (*ClusterAgent, *CoreAgent) {
	if id < 0 || id >= len(m.coreOf) {
		return nil, nil
	}
	return m.clusterOf[id], m.coreOf[id]
}

// AddTask creates a task agent with the given priority on the given core
// and seeds its bid.
func (m *Market) AddTask(priority int, coreID int) *TaskAgent {
	_, c := m.CoreByID(coreID)
	if c == nil {
		panic(fmt.Sprintf("core: AddTask on unknown core %d", coreID))
	}
	a := &TaskAgent{ID: m.nextID, Priority: priority, bid: m.cfg.InitialBid, core: c}
	m.nextID++
	c.Tasks = append(c.Tasks, a)
	return a
}

// RemoveTask detaches a task agent from the market (task exit). The agent's
// core back-reference makes this O(tasks on one core) rather than a sweep
// of the whole hierarchy.
func (m *Market) RemoveTask(a *TaskAgent) {
	c := a.core
	if c == nil {
		return
	}
	for i, t := range c.Tasks {
		if t == a {
			c.Tasks = append(c.Tasks[:i], c.Tasks[i+1:]...)
			break
		}
	}
	a.core = nil
}

// MoveTask reassigns a task agent to another core (load balancing or
// migration). The agent keeps its money: savings follow the task.
func (m *Market) MoveTask(a *TaskAgent, toCore int) {
	_, dst := m.CoreByID(toCore)
	if dst == nil {
		panic(fmt.Sprintf("core: MoveTask to unknown core %d", toCore))
	}
	m.RemoveTask(a)
	a.core = dst
	dst.Tasks = append(dst.Tasks, a)
}

// RecoverCore resets the price state of the core agent with the given
// global ID — the supply-agent recovery path after its core returns from a
// transient hot-unplug: the stale price pair reflects a window in which the
// core delivered nothing, so both price and base price are zeroed and the
// next controlPrice re-establishes the base from a fresh discovery (the
// same first-round-with-tasks path a booting cluster takes).
func (m *Market) RecoverCore(id int) {
	_, c := m.CoreByID(id)
	if c == nil {
		return
	}
	c.price, c.basePrice = 0, 0
	c.supply, c.cleared = 0, 0
}

// TotalDemand reports D = Σ_v D_v (cluster demand is its constrained
// core's).
func (m *Market) TotalDemand() float64 {
	var d float64
	for _, v := range m.Clusters {
		d += v.Demand()
	}
	return d
}

// TotalSupply reports S = Σ_v S_v.
func (m *Market) TotalSupply() float64 {
	var s float64
	for _, v := range m.Clusters {
		s += v.SupplyPU()
	}
	return s
}

// Power reports W = Σ_v cluster power, from the cluster controls' sensors.
func (m *Market) Power() float64 {
	var w float64
	for _, v := range m.Clusters {
		w += v.Control.Power()
	}
	return w
}

// classify maps a power reading onto the state machine. Without a TDP
// configured (Wtdp == 0) the chip stays in the normal state — the paper's
// "no TDP constraint" configuration. The boundaries tighten by
// DegradedGuard while the power sensor is untrusted (EffectiveWtdp).
func (m *Market) classify(w float64) State {
	if m.cfg.Wtdp <= 0 {
		return Normal
	}
	switch {
	case w >= m.EffectiveWtdp():
		return Emergency
	case w >= m.EffectiveWth():
		return Threshold
	default:
		return Normal
	}
}

// sensorJumpFactor bounds how far a single reading may sit above the EWMA
// before validation rejects it: legitimate one-round power moves (a V-F
// step, a cluster powering on) stay well inside ×6, injected spikes do
// not. Only the upward band is enforced — power-gating a cluster can
// legitimately collapse chip power within one round.
const sensorJumpFactor = 6

// validateSensor judges one raw chip-power reading (graceful degradation,
// DESIGN.md §9) and returns the value the control loop should classify. A
// reading is rejected when it is non-finite or negative, above the
// physical envelope (MaxSensorPowerW), a dropout (0 W while tasks run and
// the chip was just drawing power), or implausibly far above the EWMA.
// Rejections hold the last trusted value for up to SensorStaleRounds and
// set the degraded flag; DegradedHealthyRounds consecutive trusted
// readings clear it. Clean runs take the healthy path on every round and
// behave exactly as before.
func (m *Market) validateSensor(w float64, tasks int) float64 {
	bad := math.IsNaN(w) || math.IsInf(w, 0) || w < 0
	if !bad && m.cfg.MaxSensorPowerW > 0 && w > m.cfg.MaxSensorPowerW {
		bad = true
	}
	if !bad && w <= 0 && tasks > 0 && m.lastGoodSeeded && m.lastGoodW > 0 {
		bad = true // dropout: an occupied chip cannot draw nothing
	}
	if !bad && m.wSeeded && m.wAvg > 0 && w > m.wAvg*sensorJumpFactor+1 {
		bad = true // spike far outside anything the EWMA makes plausible
	}
	if !bad {
		m.lastGoodW, m.lastGoodSeeded = w, true
		m.staleRounds = 0
		if m.degraded {
			m.healthyStreak++
			if m.healthyStreak >= m.cfg.DegradedHealthyRounds {
				m.degraded = false
				m.healthyStreak = 0
				if m.tel.Enabled(telemetry.KindDegraded) {
					ev := telemetry.E(telemetry.KindDegraded)
					ev.Round = m.round
					ev.Name = "exit"
					ev.Value, ev.Prev = w, m.lastGoodW
					m.tel.Emit(ev)
				}
			}
		}
		return w
	}
	m.sensorRejects++
	m.rejectsC.Add(1)
	m.healthyStreak = 0
	m.staleRounds++
	if !m.degraded {
		m.degraded = true
		if m.tel.Enabled(telemetry.KindDegraded) {
			ev := telemetry.E(telemetry.KindDegraded)
			ev.Round = m.round
			ev.Name = "enter"
			ev.Value, ev.Prev = w, m.lastGoodW
			m.tel.Emit(ev)
		}
	}
	if m.lastGoodSeeded && m.staleRounds <= m.cfg.SensorStaleRounds {
		return m.lastGoodW
	}
	// Stale bound exceeded (or no trusted sample yet): clamp the raw
	// reading into the physical envelope rather than flying blind on
	// arbitrarily old data.
	if math.IsNaN(w) || w < 0 {
		w = 0
	}
	if m.cfg.MaxSensorPowerW > 0 && (w > m.cfg.MaxSensorPowerW || math.IsInf(w, 1)) {
		w = m.cfg.MaxSensorPowerW
	} else if math.IsInf(w, 1) {
		w = m.lastGoodW
	}
	return w
}

// StepOnce runs one complete market round (§3.2): chip-agent allowance
// update and hierarchical distribution, bid revision, price discovery and
// purchase, then the cluster agents' price control (DVFS). Task demands and
// observed supplies must have been injected into the task agents before the
// call.
func (m *Market) StepOnce() {
	m.round++
	m.roundsC.Add(1)
	tasks := m.taskCount()
	// Validate the raw sensor reading before anything trusts it; under an
	// injected sensor fault the validated value is the held last-good (or
	// envelope-clamped) substitute and the degraded flag tightens the
	// boundaries below.
	w := m.validateSensor(m.Power(), tasks)
	// The TDP is a thermal constraint, so the state machine classifies a
	// smoothed power reading: with discrete V-F rungs an overloaded system
	// oscillates around the budget (§3.2.3), and classifying raw samples
	// would alternate normal-state allowance growth with emergency cuts —
	// compounding into runaway — while the *average* power sits squarely in
	// the buffer zone.
	//
	// Seeding is tracked explicitly: a chip that legitimately reads 0 W
	// (every cluster power-gated) must not re-seed the average each round,
	// or the state machine would classify the next raw spike unsmoothed.
	if !m.wSeeded {
		m.wAvg = w
		m.wSeeded = true
	} else {
		m.wAvg = 0.3*w + 0.7*m.wAvg
	}
	prevState := m.state
	m.state = m.classify(m.wAvg)
	if m.tel != nil && m.state != prevState {
		ev := telemetry.E(telemetry.KindThrottle)
		ev.Round = m.round
		ev.Name = m.state.String()
		ev.Class = prevState.String()
		ev.Value, ev.Prev = m.wAvg, w
		m.tel.Emit(ev)
		switch m.state {
		case Threshold:
			m.throttleThC.Add(1)
		case Emergency:
			m.throttleEmC.Add(1)
		}
	}

	// Chip agent: Δ rules (§3.2.3).
	d, s := m.TotalDemand(), m.TotalSupply()
	switch m.state {
	case Normal:
		// Extra money exists to trigger supply increases (§3.2.3); when
		// every occupied cluster already sits at its top rung, further
		// allowance growth cannot raise supply and would only debase the
		// currency (and drown out the priority-proportional caps), so the
		// chip agent holds the allowance.
		if d > s && d > 0 && m.canRaiseSupply() {
			m.allowance += m.allowance * (d - s) / d
		}
	case Threshold:
		// Allowance held: Δ = 0.
	case Emergency:
		// Curb against the boundary actually in force: while degraded the
		// tightened budget curbs harder, buying margin the chip agent
		// cannot verify it has.
		eff := m.EffectiveWtdp()
		m.allowance += m.allowance * (eff - m.wAvg) / eff
	}
	if floor := m.cfg.MinBid * float64(tasks+1); m.allowance < floor {
		m.allowance = floor
	}

	// Hierarchical allowance distribution: A → A_v (inversely proportional
	// to cluster power) → A_c (by priority) → a_t (by priority).
	m.distributeAllowance(w)
	if m.tel.Enabled(telemetry.KindAllowance) {
		ev := telemetry.E(telemetry.KindAllowance)
		ev.Round = m.round
		ev.Name = m.state.String()
		ev.Value, ev.Prev = m.allowance, m.distributed
		m.tel.Emit(ev)
	}

	// Bidding, price discovery, purchase, price control: cluster-local
	// phases, run in cluster order on the calling goroutine.
	for _, v := range m.Clusters {
		v.runBids(&m.cfg, m.round)
		v.discover(m.round)
		v.controlPrice(&m.cfg, m.state, m.round)
	}

	// Emergency backstop: the curbed allowances normally percolate into
	// lower bids, deflation, and a supply drop — but once bids sit on the
	// b_min floor the price can no longer fall and the deflation signal
	// disappears while power is still above TDP. The chip agent then forces
	// the hungriest cluster down one rung directly ("must be brought down
	// quickly", §3.2.3).
	if m.state == Emergency {
		m.forceCooldown()
	}

	// Sequential round tail: fold hot-path counts into the registry and
	// publish the market half of the live /state snapshot.
	if m.tel != nil {
		m.foldTelemetry()
	}
}

// forceCooldown steps the highest-power occupied cluster down one V-F rung,
// unless a cluster already moved this round.
func (m *Market) forceCooldown() {
	var worst *ClusterAgent
	worstP := -1.0
	for _, v := range m.Clusters {
		if v.TaskCount() == 0 {
			continue
		}
		if v.frozen {
			return // supply already moved this round; let it settle
		}
		if p := v.Control.Power(); p > worstP {
			worst, worstP = v, p
		}
	}
	if worst != nil {
		prev := worst.Control.SupplyPU()
		if worst.Control.StepDown() {
			worst.frozen = true
			worst.emitDVFS(m.round, "force", prev)
		}
	}
}

// canRaiseSupply reports whether any cluster with tasks has V-F headroom.
func (m *Market) canRaiseSupply() bool {
	for _, v := range m.Clusters {
		if v.TaskCount() == 0 {
			continue
		}
		if v.Control.Level() < v.Control.NumLevels()-1 {
			return true
		}
	}
	return false
}

func (m *Market) taskCount() int {
	var n int
	for _, v := range m.Clusters {
		n += v.TaskCount()
	}
	return n
}

// distributeAllowance computes A_v = A·(W−W_v)/W across the clusters that
// have tasks (normalized so the shares sum to A; for the two-cluster TC2
// the paper's formula is already normalized), then recurses down the
// hierarchy.
func (m *Market) distributeAllowance(w float64) {
	shares := m.shares[:0]
	var sum float64
	for _, v := range m.Clusters {
		if v.TaskCount() == 0 {
			v.allowance = 0
			v.distributed = 0
			continue
		}
		weight := 1.0
		if w > 0 {
			weight = (w - v.Control.Power()) / w
			if weight <= 0 {
				weight = 1e-6 // a cluster drawing all chip power still gets a sliver
			}
		}
		shares = append(shares, allowanceShare{v, weight})
		sum += weight
	}
	m.shares = shares
	if len(shares) == 0 {
		m.distributed = 0
		return
	}
	if sum <= 0 {
		for i := range shares {
			shares[i].weight = 1
		}
		sum = float64(len(shares))
	}
	m.distributed = 0
	for _, sh := range shares {
		sh.v.allowance = m.allowance * sh.weight / sum
		m.distributed += sh.v.allowance
	}
	// The per-cluster fan-out (A_v → A_c → a_t) is cluster-local.
	for _, v := range m.Clusters {
		if v.TaskCount() > 0 {
			v.distributeAllowance()
		}
	}
}

// allowanceShare is one occupied cluster's unnormalized allowance weight.
type allowanceShare struct {
	v      *ClusterAgent
	weight float64
}

// Stable reports whether the last round left every cluster un-frozen and no
// cluster's constrained-core price outside its tolerance band — the price
// equilibrium of §3.2.4.
func (m *Market) Stable() bool {
	for _, v := range m.Clusters {
		if v.Frozen() {
			return false
		}
		cc := v.ConstrainedCore()
		if cc == nil || cc.basePrice == 0 {
			continue
		}
		tol := cc.basePrice * m.cfg.Tolerance
		if cc.price >= cc.basePrice+tol || cc.price <= cc.basePrice-tol {
			return false
		}
	}
	return true
}
