// Package telemetry is the simulator's structured observability layer: a
// low-overhead typed event stream, a counter/gauge registry with a
// Prometheus-style text exposition, and a live state snapshot — the
// evidence every "why did PPM throttle / migrate / re-price?" question is
// answered from (the paper's Figures 4–8 and Tables 1–7 are exactly such
// explanations).
//
// The design contract mirrors internal/check's AttachChecker: telemetry is
// attached to a platform via Platform.AttachTelemetry and costs nothing
// when detached. Every method on *Emitter is nil-receiver safe, so emission
// sites read
//
//	if em.Enabled(telemetry.KindDVFS) { em.Emit(...) }
//
// and a detached run pays one nil check. With telemetry attached, the hot
// paths stay cheap by construction:
//
//   - high-volume per-round kinds (KindPrice, KindBid, KindClearing) are
//     excluded from DefaultKinds and must be opted into (the per-kind mask
//     is checked before the event is even built);
//   - events are flat value structs fanned into sinks without allocation on
//     the emitter side (the ring sink copies by value; only the JSONL sink
//     marshals);
//   - counters are atomics, and hot-path counts (bid clamping) are
//     accumulated in plain per-agent fields and folded into the registry
//     once per market round.
//
// The attached steady-state overhead is BenchmarkMarketRoundTelemetryAttached
// against BenchmarkMarketRoundScale/V=256 (budget: ≤ 10% vs detached; see
// DESIGN.md §8).
package telemetry

import (
	"fmt"
	"sync"

	"pricepower/internal/sim"
)

// Kind is the type tag of one telemetry event.
type Kind uint8

const (
	// KindPrice is a per-core price-discovery result (one per core with
	// tasks per market round — high volume, off by default).
	// Cluster/Core set; Value = discovered price P_c, Prev = base price.
	KindPrice Kind = iota
	// KindBid is a per-task bid revision (one per task per market round —
	// high volume, off by default). Cluster/Core/Task set; Value = revised
	// bid b_t, Prev = previous bid.
	KindBid
	// KindClearing is a per-core supply clearing (high volume, off by
	// default). Cluster/Core set; Value = Σ s_t handed out, Prev = the
	// supply S_c the discovery cleared against.
	KindClearing
	// KindAllowance is the chip agent's allowance update and redistribution
	// (one per market round). Value = global allowance A, Prev = Σ A_v
	// actually distributed; Name = the chip state the update ran under.
	KindAllowance
	// KindThrottle is a chip power-state transition (normal ⇄ threshold ⇄
	// emergency). Name = new state, Class = previous state, Value = the
	// EWMA-smoothed chip power that was classified.
	KindThrottle
	// KindDVFS is a cluster V-F ladder transition. Cluster set; Value = new
	// per-core supply (MHz), Prev = old supply; Class = "up", "down",
	// "drift" (empty cluster decaying to the bottom rung) or "force" (the
	// emergency backstop).
	KindDVFS
	// KindMigration is a platform task migration. Task/Name set; Core = the
	// destination core, Cluster = the destination cluster, Prev = the
	// source core; Value = the modeled migration cost in seconds and
	// Class = its paper cost class: "us" (intra-cluster, §5.1's 54–167 µs
	// band) or "ms" (cross-cluster, the 1.88–3.83 ms band).
	KindMigration
	// KindPowerGate is a cluster power up/down decision. Cluster set;
	// Class = "on" or "off".
	KindPowerGate
	// KindViolation is an invariant-checker breach (internal/check).
	// Name = the invariant identifier, Detail = the human-readable detail.
	KindViolation
	// KindFault marks one edge of a fault-injection window (internal/fault).
	// Name = the fault type ("power-dropout", "dvfs-fail", …), Class =
	// "start" or "end"; Cluster/Core identify the target (-1 = chip-wide),
	// Value = the scenario magnitude. Low volume: two events per fault.
	KindFault
	// KindDrain marks a fleet board drain-lifecycle transition
	// (internal/fleet). Name = "board-N"; Class = "drain", "redrain"
	// (a repeat drain inside the cooldown window), "resume",
	// "manual-drain" or "manual-resume"; Value = tasks evacuated;
	// Prev = the resume cooldown in barriers.
	KindDrain
	// KindDegraded marks the market's sensor-health transitions. Name =
	// "enter" (a power reading failed validation and the market tightened
	// its TDP guard band) or "exit" (enough consecutive trusted readings);
	// Value = the raw reading that triggered the edge, Prev = the last
	// trusted reading the market held instead.
	KindDegraded
	// KindBoard marks a fleet board failure-domain transition
	// (internal/fleet). Name = "board-N"; Class = "crash" (terminal
	// panic detected at a barrier, Value = the barrier), "stall" (the
	// deterministic stall detector quarantined the board, Value =
	// barriers missed), "catch-up" (a stalled board's first real reply,
	// Value = barriers missed), "restart" (supervised resurrection,
	// Value = the new restart epoch), "replace" (a permanently
	// quarantined board's orphans re-placed, Value = the count) or
	// "quarantine" (restarts disabled or exhausted, Value = restarts
	// used). Low volume: a handful of events per failure.
	KindBoard

	numKinds
)

var kindNames = [numKinds]string{
	KindPrice:     "price",
	KindBid:       "bid",
	KindClearing:  "clearing",
	KindAllowance: "allowance",
	KindThrottle:  "throttle",
	KindDVFS:      "dvfs",
	KindMigration: "migration",
	KindPowerGate: "powergate",
	KindViolation: "violation",
	KindFault:     "fault",
	KindDrain:     "drain",
	KindDegraded:  "degraded",
	KindBoard:     "board",
}

// String names the kind (the value used in JSONL logs and metric labels).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText encodes the kind by name (JSONL events carry "dvfs", not 5).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name written by MarshalText.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, n := range kindNames {
		if n == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", b)
}

// KindSet is a bitmask over event kinds.
type KindSet uint64

// Has reports whether the set contains k.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// Kinds builds a set from the listed kinds.
func Kinds(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

const (
	// AllKinds enables every event kind.
	AllKinds KindSet = 1<<numKinds - 1
	// DefaultKinds is AllKinds minus the high-volume per-round kinds
	// (price, bid, clearing): the set that keeps steady-state overhead
	// inside the ≤ 10% budget and is always safe to leave on.
	DefaultKinds = AllKinds &^ (1<<KindPrice | 1<<KindBid | 1<<KindClearing)
)

// Event is one structured telemetry record: a flat value struct so sinks
// can copy it without allocation. Field meaning is kind-specific and
// documented on the Kind constants; integer id fields are -1 when not
// applicable to the kind.
type Event struct {
	// Time is the virtual time the event was emitted (end-of-tick clock,
	// nanoseconds; 0 for platform-less market harnesses).
	Time sim.Time `json:"t"`
	// Kind tags the event type ("price", "dvfs", …).
	Kind Kind `json:"kind"`
	// Round is the market round the event belongs to (0 without a market).
	Round int `json:"round"`
	// Cluster, Core and Task identify the emitting entity (-1 = n/a).
	Cluster int `json:"cluster"`
	Core    int `json:"core"`
	Task    int `json:"task"`
	// Board identifies the fleet board the event came from; 0 both for
	// board 0 and for single-platform runs, where the field is omitted
	// from JSONL. Stamped by the fleet's per-barrier event fold, which
	// also fixes the cross-board ordering (see JSONLSink).
	Board int `json:"board,omitempty"`
	// Name is a kind-specific label (task name, new chip state, invariant
	// identifier).
	Name string `json:"name,omitempty"`
	// Class is a kind-specific discriminator (migration cost class "us" /
	// "ms", DVFS direction, previous chip state, power-gate direction).
	Class string `json:"class,omitempty"`
	// Detail carries free-form context (invariant-violation detail).
	Detail string `json:"detail,omitempty"`
	// Value and Prev are the kind's primary quantity and its previous /
	// reference value.
	Value float64 `json:"value"`
	Prev  float64 `json:"prev"`
}

// E returns an event of the given kind with the entity ids blanked to -1 —
// the canonical way emission sites build events so "core 0" is never
// conflated with "no core".
func E(k Kind) Event { return Event{Kind: k, Cluster: -1, Core: -1, Task: -1} }

// Sink receives emitted events. Emit may be called from any goroutine and
// may race with readers of the sink, so sinks must be safe for concurrent
// use; they must not retain pointers into the event
// (it is a value copy).
type Sink interface {
	Emit(ev Event)
}

// Emitter is the attachment point components emit through. It stamps
// events with the virtual clock, applies the per-kind enable mask,
// maintains per-kind event counters in the registry, and fans events out
// to its sinks. All methods are nil-receiver safe: a detached component
// holds a nil *Emitter and pays one branch per emission site.
type Emitter struct {
	mask  KindSet
	sinks []Sink
	clock func() sim.Time
	reg   *Registry

	kindCounters [numKinds]*Counter

	stateMu sync.Mutex
	state   State
	pubs    uint64 // state publications (freshness marker for /state)
}

// NewEmitter builds an emitter over the given sinks with DefaultKinds
// enabled. reg may be nil (no counter exposition); with a registry, the
// per-kind event counters pricepower_events_total{kind=…} are registered
// eagerly so /metrics shows every kind at 0 from the start.
func NewEmitter(reg *Registry, sinks ...Sink) *Emitter {
	e := &Emitter{mask: DefaultKinds, sinks: sinks, reg: reg}
	if reg != nil {
		for k := Kind(0); k < numKinds; k++ {
			e.kindCounters[k] = reg.Counter(
				fmt.Sprintf(`pricepower_events_total{kind=%q}`, k.String()),
				"Telemetry events emitted, by kind.")
		}
	}
	return e
}

// SetKinds replaces the enabled-kind mask. Call before the run starts;
// the mask is read without synchronization on the hot path.
func (e *Emitter) SetKinds(s KindSet) {
	if e != nil {
		e.mask = s
	}
}

// EnabledKinds reports the current mask (0 on a nil emitter).
func (e *Emitter) EnabledKinds() KindSet {
	if e == nil {
		return 0
	}
	return e.mask
}

// Enabled reports whether events of kind k are being collected. Emission
// sites guard on this before building an event, so masked kinds cost one
// branch.
func (e *Emitter) Enabled(k Kind) bool { return e != nil && e.mask.Has(k) }

// SetClock installs the virtual-time source used to stamp events
// (Platform.AttachTelemetry sets the engine clock; platform-less market
// harnesses leave it unset and events carry only their round).
func (e *Emitter) SetClock(fn func() sim.Time) {
	if e != nil {
		e.clock = fn
	}
}

// Registry returns the registry the emitter counts into (nil when
// detached or built without one).
func (e *Emitter) Registry() *Registry {
	if e == nil {
		return nil
	}
	return e.reg
}

// Emit stamps and fans out one event. Events of masked kinds are dropped
// (prefer guarding with Enabled so they are never built). Safe for
// concurrent use.
func (e *Emitter) Emit(ev Event) {
	if e == nil || !e.mask.Has(ev.Kind) {
		return
	}
	if ev.Time == 0 && e.clock != nil {
		ev.Time = e.clock()
	}
	if c := e.kindCounters[ev.Kind]; c != nil {
		c.Add(1)
	}
	for _, s := range e.sinks {
		s.Emit(ev)
	}
}
