package ppm

import (
	"testing"

	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// Tasks come and go over many bid rounds, LBT moving them meanwhile; after
// every round the governor holds exactly the live tasks: one record each,
// in the platform's creation order, indexed by task and agent ID, with one
// market agent each — nothing of a removed task stays behind.
func TestRemovedTasksLeaveNoGovernorState(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.Profiles = profiles(map[string]float64{"a": 300, "b": 500, "c": 800})
	p, g := newRig(cfg)
	rng := sim.NewRand(3)
	names := []string{"a", "b", "c"}
	var removed []*task.Task
	for step := 0; step < 80; step++ {
		for n := rng.Intn(3); n > 0; n-- {
			name := names[rng.Intn(len(names))]
			p.AddTask(spec(name, map[string]float64{"a": 300, "b": 500, "c": 800}[name], 1+rng.Intn(3)), rng.Intn(len(p.Chip.Cores)))
		}
		for n := rng.Intn(3); n > 0 && p.NumTasks() > 0; n-- {
			tk := p.Tasks()[rng.Intn(p.NumTasks())]
			p.RemoveTask(tk)
			removed = append(removed, tk)
		}
		// Two bid periods: the second round syncs the changes above.
		p.Run(2 * cfg.BidPeriod)
		checkGovernorHoldsLive(t, p, g, step)
	}
	if len(removed) < 50 {
		t.Fatalf("only %d removals; the churn is too light to test", len(removed))
	}
	for _, tk := range removed {
		if g.AgentOf(tk) != nil {
			t.Fatalf("removed task %d still has an agent", tk.ID)
		}
	}
	if b, m := g.Moves(); b+m == 0 {
		t.Error("LBT never moved a task; movement bookkeeping went untested")
	}
}

func checkGovernorHoldsLive(t *testing.T, p *platform.Platform, g *Governor, step int) {
	t.Helper()
	live := p.Tasks()
	if len(g.recs) != len(live) {
		t.Fatalf("step %d: %d records for %d live tasks", step, len(g.recs), len(live))
	}
	for i, tk := range live {
		if g.recs[i].t != tk || g.AgentOf(tk) != g.recs[i].a {
			t.Fatalf("step %d: record %d is not live task %d's", step, i, tk.ID)
		}
	}
	nonNil := func(s []*taskRec) (n int) {
		for _, r := range s {
			if r != nil {
				n++
			}
		}
		return n
	}
	if a, b, s := nonNil(g.byTask), nonNil(g.byAgent), nonNil(g.spare[:cap(g.spare)]); a != len(live) || b != len(live) || s != 0 {
		t.Fatalf("step %d: %d task-indexed, %d agent-indexed and %d spare records for %d live tasks",
			step, a, b, s, len(live))
	}
	agents := 0
	for _, v := range g.Market().Clusters {
		agents += v.TaskCount()
	}
	if agents != len(live) {
		t.Fatalf("step %d: the market holds %d agents for %d live tasks", step, agents, len(live))
	}
}

// roundAllocsBound caps the allocations of six steady-state bid periods on
// a TC2 board with eight tasks and LBT on, ticks included. Six periods hold
// six market rounds and three LBT plans (two balance, one migration). The
// measured count is 0: the rig has settled, so no plan proposes a move,
// and a proposing plan allocates only the caller's copy of its move. The
// bound allows that copy for each of the three plans. With per-task maps,
// per-plan tables and per-round slices the same periods allocated 103
// times; one allocation per task or per round would exceed the bound.
const roundAllocsBound = 3

// The governor round allocates per plan at most, never per task.
func TestGovernorRoundAllocations(t *testing.T) {
	cfg := DefaultConfig(0)
	d := map[string]float64{"a": 300, "b": 450, "c": 600, "d": 900}
	cfg.Profiles = profiles(d)
	p, g := newRig(cfg)
	for i := 0; i < 8; i++ {
		name := []string{"a", "b", "c", "d"}[i%4]
		p.AddTask(spec(name, d[name], 1+i%3), i%len(p.Chip.Cores))
	}
	p.Run(20 * sim.Second)
	rounds := g.round
	got := testing.AllocsPerRun(10, func() { p.Run(6 * cfg.BidPeriod) })
	if g.round-rounds < 60 {
		t.Fatalf("only %d bid rounds ran", g.round-rounds)
	}
	if got > roundAllocsBound {
		t.Errorf("six bid periods allocate %v times, bound %d", got, roundAllocsBound)
	}
}
