package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// grid is a probe's series sampler. It samples at the first tick after
// from, then at the first tick that reaches each later point of the grid
// from + k·every. A tick that passes several grid points samples once, and
// the next point is computed from the grid, not from the tick, so a period
// the tick does not divide never drifts.
type grid struct {
	from, every, next sim.Time

	cols  []Column         // chip, cluster and gauge columns
	reads []func() float64 // one per column, read at every sample
	tasks []taskSeries     // indexed by task ID
}

// taskSeries is one task's columns: heart rate over target, and core.
type taskSeries struct {
	t        *task.Task // nil for an ID the grid never sampled
	hr, core Series
}

// EnableSeries turns on the series grid: one sample at the first tick after
// from, then one per period on the grid from + k·every. A sample records
// chip power (PowerSeries); per cluster its frequency, power, power state
// and, when a thermal model is attached to the platform by now, its die
// temperature; per task its heart rate over target (HRSeries) and core;
// and every Gauge. A task that arrives late starts its series at its first
// sample; a task that has exited reads 0.
func (pr *Probe) EnableSeries(from, every sim.Time) {
	if every <= 0 {
		panic(fmt.Sprintf("metrics: series period %v is not positive", every))
	}
	p := pr.p
	pr.grid = &grid{from: from, every: every, next: from + 1}
	pr.PowerSeries = pr.Gauge("chip_W", p.Power)
	thermals := p.Thermals()
	for i, cl := range p.Chip.Clusters {
		n := cl.Spec.Name
		pr.Gauge(n+"_MHz", func() float64 { return float64(cl.CurLevel().FreqMHz) })
		pr.Gauge(n+"_W", func() float64 { return p.ClusterPower(i) })
		pr.Gauge(n+"_on", func() float64 {
			if cl.On {
				return 1
			}
			return 0
		})
		if len(thermals) > 0 {
			pr.Gauge(n+"_C", func() float64 { return thermals[0].Temp(i) })
		}
	}
}

// Gauge adds a named column to the series grid (enabled first by
// EnableSeries): read is called at every grid sample and its values fill
// the returned series.
func (pr *Probe) Gauge(name string, read func() float64) *Series {
	g := pr.grid
	g.cols = append(g.cols, Column{name, &Series{}})
	g.reads = append(g.reads, read)
	return g.cols[len(g.cols)-1].Series
}

// HRSeries reports t's heart rate over its target on the series grid, or
// nil when the grid never sampled t.
func (pr *Probe) HRSeries(t *task.Task) *Series {
	g := pr.grid
	if g == nil || t.ID < 0 || t.ID >= len(g.tasks) || g.tasks[t.ID].t != t {
		return nil
	}
	return &g.tasks[t.ID].hr
}

// sample records one grid sample at now and arms the next grid point.
func (pr *Probe) sample(now sim.Time) {
	g := pr.grid
	g.next = now - (now-g.from)%g.every + g.every
	for i, read := range g.reads {
		g.cols[i].Add(now, read())
	}
	for _, t := range pr.p.Tasks() {
		for t.ID >= len(g.tasks) {
			g.tasks = append(g.tasks, taskSeries{})
		}
		s := &g.tasks[t.ID]
		s.t = t
		s.hr.Add(now, t.HeartRate(now)/t.TargetHR())
		s.core.Add(now, float64(pr.p.CoreOf(t)))
	}
	for i := range g.tasks {
		if s := &g.tasks[i]; s.t != nil && s.hr.Times[s.hr.Len()-1] != now {
			s.hr.Add(now, 0)
			s.core.Add(now, 0)
		}
	}
}

// WriteCSV writes the series grid (EnableSeries first) as CSV: chip_W,
// then per cluster <name>_MHz, _W, _on and (with a thermal model) _C, then
// the gauges, then per task <name>_hr_norm and <name>_core. Task columns
// follow the time of each task's first sample, then its name.
func (pr *Probe) WriteCSV(w io.Writer) error {
	g := pr.grid
	var ts []*taskSeries
	for i := range g.tasks {
		if g.tasks[i].t != nil {
			ts = append(ts, &g.tasks[i])
		}
	}
	sort.SliceStable(ts, func(a, b int) bool {
		if fa, fb := ts[a].hr.Times[0], ts[b].hr.Times[0]; fa != fb {
			return fa < fb
		}
		return ts[a].t.Name < ts[b].t.Name
	})
	cols := slices.Clip(g.cols)
	for _, s := range ts {
		cols = append(cols, Column{s.t.Name + "_hr_norm", &s.hr}, Column{s.t.Name + "_core", &s.core})
	}
	return WriteCSV(w, cols)
}

// Column is one named series of a CSV table.
type Column struct {
	Name string
	*Series
}

// WriteCSV writes the columns as one CSV table joined on their sample
// times: the header "t_s,<names>", then one row per distinct sample time in
// ascending order, every cell formatted "%.4f" (times in seconds). A column
// with no sample at a row's time reads NaN there.
func WriteCSV(w io.Writer, cols []Column) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("t_s")
	for _, c := range cols {
		bw.WriteString("," + c.Name)
	}
	bw.WriteString("\n")
	next := make([]int, len(cols))
	for {
		var now sim.Time
		found := false
		for i, c := range cols {
			if next[i] < c.Len() && (!found || c.Times[next[i]] < now) {
				now, found = c.Times[next[i]], true
			}
		}
		if !found {
			break
		}
		fmt.Fprintf(bw, "%.4f", now.Seconds())
		for i, c := range cols {
			v := math.NaN()
			if next[i] < c.Len() && c.Times[next[i]] == now {
				v = c.Values[next[i]]
				next[i]++
			}
			fmt.Fprintf(bw, ",%.4f", v)
		}
		bw.WriteString("\n")
	}
	return bw.Flush()
}
