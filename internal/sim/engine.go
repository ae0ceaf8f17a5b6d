package sim

import "fmt"

// TickHook is a component that wants to be driven once per engine tick.
// Hooks run in registration order; now is the time at the *end* of the tick,
// i.e. the state they observe covers (now-step, now].
type TickHook interface {
	Tick(now Time)
}

// Spanner is a TickHook that can also play several consecutive ticks in
// one call. When a spanner is the engine's only hook, RunUntil offers it
// every stretch of ticks that no one-shot event interrupts and that does
// not run past the run's end; the hook plays a prefix of the stretch and
// reports its length. Playing k ticks in one Span call must leave exactly
// the state k Tick calls would have left, and must schedule no event that
// falls due inside the span.
type Spanner interface {
	TickHook
	// Span offers the n ≥ 2 ticks ending at now+step, …, now+n·step and
	// returns how many of them, k ≤ n, it played; 0 declines the offer and
	// the engine steps the next tick normally.
	Span(now Time, n int) int
}

// TickFunc adapts a plain function to the TickHook interface.
type TickFunc func(now Time)

// Tick calls f(now).
func (f TickFunc) Tick(now Time) { f(now) }

// Engine advances a virtual clock in fixed steps, firing scheduled one-shot
// events and per-tick hooks. The zero value is not usable; call NewEngine.
type Engine struct {
	now    Time
	step   Time
	hooks  []TickHook
	span   Spanner                  // hooks[0] when it is the only hook and a Spanner
	events Schedule[func(now Time)] // one-shot events, FIFO at equal times
	end    Time                     // the end of the current (or last) RunUntil
}

// NewEngine returns an engine whose clock starts at zero and advances in
// steps of the given size. Step must be positive.
func NewEngine(step Time) *Engine {
	if step <= 0 {
		panic(fmt.Sprintf("sim: non-positive engine step %d", step))
	}
	return &Engine{step: step}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Step reports the tick size.
func (e *Engine) Step() Time { return e.step }

// AddHook registers a hook to run every tick, after all hooks registered
// before it. Spans are offered only while a single hook is registered.
func (e *Engine) AddHook(h TickHook) {
	e.hooks = append(e.hooks, h)
	e.span = nil
	if len(e.hooks) == 1 {
		e.span, _ = h.(Spanner)
	}
}

// At schedules fn to run at virtual time at. Events scheduled in the past
// (or at the current time) fire at the start of the next tick. Events at the
// same time fire in scheduling order, always before that tick's hooks.
func (e *Engine) At(at Time, fn func(now Time)) { e.events.Push(at, fn) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func(now Time)) { e.At(e.now+d, fn) }

// RunUntil advances the clock tick by tick until it reaches (at least) end.
// Each tick fires, in order: due one-shot events, then every hook. A lone
// Spanner hook is first offered the ticks up to the earlier of end and
// the tick at which the next event falls due; what it declines is stepped.
func (e *Engine) RunUntil(end Time) {
	e.end = end
	for e.now < end {
		if e.span != nil {
			if n := e.Horizon(); n >= 2 {
				if k := e.span.Span(e.now, n); k > 0 {
					e.now += Time(k) * e.step
					continue
				}
			}
		}
		e.StepOnce()
	}
}

// Horizon counts the ticks after now that the current RunUntil will play
// with no one-shot event among them: those ending no later than its end
// and before the first pending event's time (an event fires at the start
// of the first tick ending at or after it). It is the stretch a lone
// Spanner is offered, and the most a hook may assume unchanged by anyone
// but the hooks themselves. Outside RunUntil (a bare StepOnce) it is 0.
func (e *Engine) Horizon() int {
	n := max(int((e.end-e.now)/e.step), 0)
	if at, ok := e.events.Next(); ok {
		n = min(n, e.TicksBefore(at))
	}
	return n
}

// TicksBefore counts the ticks after the current time that end strictly
// before at.
func (e *Engine) TicksBefore(at Time) int {
	if at <= e.now {
		return 0
	}
	return int((at - e.now - 1) / e.step)
}

// RunFor advances the clock by d from the current time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// StepOnce advances the clock by exactly one step and fires due events and
// all hooks.
func (e *Engine) StepOnce() {
	e.now += e.step
	for at, ok := e.events.Next(); ok && at <= e.now; at, ok = e.events.Next() {
		e.events.Pop()(e.now)
	}
	for _, h := range e.hooks {
		h.Tick(e.now)
	}
}

// Pending reports the number of scheduled one-shot events not yet fired.
func (e *Engine) Pending() int { return e.events.Len() }
