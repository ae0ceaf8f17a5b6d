package ppm

import (
	"testing"

	"pricepower/internal/hw"
	"pricepower/internal/metrics"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// The framework must generalize beyond the two-cluster TC2: a four-cluster
// platform (alternating LITTLE/big micro-architectures, ladders spread over
// 350–3000 PU) runs end to end, tasks land where they fit, and empty
// clusters power down.
func TestManyClusterPlatform(t *testing.T) {
	chip := hw.MustNewChip(hw.ScaledSpec(4, 2))
	p := platform.New(chip, sim.Millisecond)
	online := NewOnlineProfiler()
	cfg := DefaultConfig(0)
	cfg.Profiles = online.Profiles
	cfg.Online = online
	g := New(cfg)
	p.SetGovernor(g)

	// Tasks sized for different cluster capabilities, all booted on the
	// weakest cluster (cluster 0, max 350 PU).
	mk := func(name string, demand float64, core int) *task.Task {
		return p.AddTask(task.Spec{
			Name: name, Priority: 1, MinHR: 27, MaxHR: 33, Loop: true,
			Phases: []task.Phase{{HBCostLittle: demand / 30, SpeedupBig: 2}},
		}, core)
	}
	small := mk("small", 200, 0)
	big1 := mk("big1", 1500, 1)
	big2 := mk("big2", 2200, 0)

	pr := metrics.NewProbe(p, 5*sim.Second)
	pr.Attach()
	p.Run(40 * sim.Second)

	// The demanding tasks must have left the 350 PU cluster.
	if got := p.ClusterOf(big1).Spec.MaxFreqMHz(); got < 1500/2 {
		t.Errorf("big1 on a cluster with max %d PU", got)
	}
	if got := p.ClusterOf(big2).Spec.MaxFreqMHz(); got < 2200/2 {
		t.Errorf("big2 on a cluster with max %d PU", got)
	}
	if got := pr.BelowFrac(small); got > 0.1 {
		t.Errorf("small task below range %.3f of the time", got)
	}
	if got := pr.BelowFrac(big1); got > 0.4 {
		t.Errorf("big1 below range %.3f of the time", got)
	}
	// Any cluster with no tasks must be power-gated.
	counts := make(map[*hw.Cluster]int)
	for _, tk := range p.Tasks() {
		counts[p.ClusterOf(tk)]++
	}
	for _, cl := range p.Chip.Clusters {
		if counts[cl] == 0 && cl.On {
			t.Errorf("empty cluster %s still powered", cl.Spec.Name)
		}
	}
}

// Task churn: tasks arrive and exit mid-run; the governor keeps its agent
// set consistent and releases resources after exits.
func TestTaskChurn(t *testing.T) {
	p := platform.NewTC2()
	cfg := DefaultConfig(0)
	g := New(cfg)
	p.SetGovernor(g)

	a := p.AddTask(spec("a", 500, 1), 2)
	var b *task.Task
	p.Engine.At(5*sim.Second, func(now sim.Time) {
		b = p.AddTask(spec("b", 700, 2), 3)
	})
	p.Engine.At(15*sim.Second, func(now sim.Time) {
		p.RemoveTasks(a)
	})
	p.Run(30 * sim.Second)

	if g.AgentOf(a) != nil {
		t.Error("removed task still has a market agent")
	}
	if b == nil || g.AgentOf(b) == nil {
		t.Fatal("late task has no market agent")
	}
	if hr := b.HeartRate(p.Now()); hr <= 0 {
		t.Error("late task received no supply")
	}
	// With only b (700 PU) left, the LITTLE cluster should sit at the
	// 700 PU rung, not wherever the pair drove it.
	little := p.Chip.Clusters[1]
	if p.ClusterOf(b) == little {
		if f := little.CurLevel().FreqMHz; f > 800 {
			t.Errorf("LITTLE at %d MHz for a single 700 PU task", f)
		}
	}
}
