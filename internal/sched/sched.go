// Package sched is the fair-scheduler substrate: a CFS-style weighted-fair
// run queue per core, the Linux nice→weight table, and PELT-style per-entity
// load tracking.
//
// The paper's framework steers the stock Linux scheduler through two knobs —
// nice values (→ proportional shares, used by the core agents to distribute
// purchased resources) and affinity (→ task placement, used by the LBT
// module). This package reproduces those semantics: each core owns a Queue
// of Entities; every simulator tick the queue plays out CFS pick-next over
// the tick and reports how much work each entity received.
//
// Work is measured in PU·seconds: one PU·s equals one million processor
// cycles (the paper's Processing Unit integrated over a second).
package sched

// niceToWeight is the kernel's prio_to_weight table: nice 0 = 1024, and each
// nice step changes CPU share by ≈1.25×.
var niceToWeight = [40]int64{
	88761, 71755, 56483, 46273, 36291, // -20 .. -16
	29154, 23254, 18705, 14949, 11916, // -15 .. -11
	9548, 7620, 6100, 4904, 3906, // -10 .. -6
	3121, 2501, 1991, 1586, 1277, // -5 .. -1
	1024, 820, 655, 526, 423, // 0 .. 4
	335, 272, 215, 172, 137, // 5 .. 9
	110, 87, 70, 56, 45, // 10 .. 14
	36, 29, 23, 18, 15, // 15 .. 19
}

// NiceToWeight maps a Linux nice value (-20..19, clamped) to its CFS load
// weight.
func NiceToWeight(nice int) float64 {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return float64(niceToWeight[nice+20])
}

// Entity is one schedulable task as the scheduler sees it.
type Entity struct {
	ID int

	// Weight is the entity's CFS load weight. The core agents implement the
	// paper's resource distribution by setting it proportional to the supply
	// each task purchased; plain fair scheduling uses NiceToWeight(0).
	Weight float64

	// WantPU caps how many PUs the entity will consume this tick (its
	// self-pacing: a task that met its maximum heart rate idles). Negative
	// means unbounded (fully CPU-bound).
	WantPU float64

	// vruntime is the entity's weighted virtual runtime in PU·s/weight.
	vruntime float64

	// queue and qpos index the entity's position in its current run queue so
	// Queue.Remove and Queue.Contains are O(1) lookups instead of scans. An
	// entity is on at most one queue at a time (nil when dequeued).
	queue *Queue
	qpos  int

	// Load tracks the entity's recent runnable fraction (PELT-style).
	Load LoadTracker

	// work is what the entity received in its queue's last tick, in PU·s
	// (zero while dequeued).
	work float64
}

// Work reports the work the entity received in its queue's last tick, in
// PU·s (millions of cycles); zero while it is not enqueued.
func (e *Entity) Work() float64 { return e.work }

// Queued reports whether the entity is currently enqueued on some run queue.
func (e *Entity) Queued() bool { return e.queue != nil }

// VRuntime exposes the entity's current virtual runtime (useful in tests and
// diagnostics).
func (e *Entity) VRuntime() float64 { return e.vruntime }
