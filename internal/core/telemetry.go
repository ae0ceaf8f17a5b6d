package core

import "pricepower/internal/telemetry"

// SetTelemetry attaches a structured-telemetry emitter to the market. The
// market then emits throttle state transitions, allowance redistributions,
// DVFS ladder moves, and — when the high-volume kinds are enabled on the
// emitter — per-core price/clearing and per-task bid events; it also feeds
// the emitter's registry (round count, throttle entries, Eq. 1 clamp hits,
// sensor rejects).
//
// Counts accumulated on the hot path live in plain per-core fields and are
// folded into the registry once per round in the round tail, so the
// bidding loops pay no atomics. Passing nil detaches. Platform-attached
// governors never call this directly: the platform propagates its emitter
// through ppm.Governor.AttachTelemetry.
func (m *Market) SetTelemetry(em *telemetry.Emitter) {
	m.tel = em
	for _, v := range m.Clusters {
		v.tel = em
	}
	if em == nil {
		return
	}
	reg := em.Registry()
	if reg == nil {
		return
	}
	m.roundsC = reg.Counter("pricepower_market_rounds_total",
		"Market bid rounds executed.")
	m.throttleThC = reg.Counter(`pricepower_throttle_total{state="threshold"}`,
		"Chip-agent entries into a throttling state (threshold or emergency).")
	m.throttleEmC = reg.Counter(`pricepower_throttle_total{state="emergency"}`,
		"Chip-agent entries into a throttling state (threshold or emergency).")
	m.clampFloorC = reg.Counter(`pricepower_bid_clamp_total{bound="floor"}`,
		"Bid revisions clamped by Eq. 1 (floor: b_min, cap: allowance+savings).")
	m.clampCapC = reg.Counter(`pricepower_bid_clamp_total{bound="cap"}`,
		"Bid revisions clamped by Eq. 1 (floor: b_min, cap: allowance+savings).")
	m.rejectsC = reg.Counter("pricepower_sensor_rejects_total",
		"Chip power readings rejected by sensor validation (degraded mode).")
}

// Telemetry returns the attached emitter (nil when detached).
func (m *Market) Telemetry() *telemetry.Emitter { return m.tel }

// foldTelemetry runs in the tail of every round: it folds the plain
// per-core clamp counts into the registry and publishes the market
// half of the live /state snapshot (round, allowance, smoothed power, state,
// per-cluster constrained-core prices — the hardware half comes from the
// platform at its own cadence).
func (m *Market) foldTelemetry() {
	var floor, cap uint64
	for _, v := range m.Clusters {
		for _, c := range v.Cores {
			floor += c.clampFloor
			cap += c.clampCap
		}
	}
	m.clampFloorC.Store(floor)
	m.clampCapC.Store(cap)
	m.tel.PublishState(m.fillState)
}

func (m *Market) fillState(s *telemetry.State) {
	s.Round = m.round
	s.Allowance = m.allowance
	s.SmoothedW = m.wAvg
	s.MarketState = m.state.String()
	s.Degraded = m.degraded
	for i, v := range m.Clusters {
		c := s.Cluster(i)
		c.ID = i
		c.Price, c.BasePrice = v.snapPrice, v.snapBase
	}
}

// emitDVFS reports one V-F ladder move by this cluster. class is "up",
// "down" (price control), "drift" (empty cluster sinking to the bottom
// rung), or "force" (the chip agent's emergency backstop).
func (v *ClusterAgent) emitDVFS(round int, class string, prevSupply float64) {
	if !v.tel.Enabled(telemetry.KindDVFS) {
		return
	}
	ev := telemetry.E(telemetry.KindDVFS)
	ev.Round, ev.Cluster = round, v.ID
	ev.Class = class
	ev.Value, ev.Prev = v.Control.SupplyPU(), prevSupply
	v.tel.Emit(ev)
}
