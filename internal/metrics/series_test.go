package metrics

import (
	"strings"
	"testing"

	"pricepower/internal/hw"
	"pricepower/internal/platform"
	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/task"
)

// traced attaches a probe whose series grid samples every period from the
// first tick, as a traced run does.
func traced(p *platform.Platform, period sim.Time) *Probe {
	pr := NewProbe(p, 0)
	pr.EnableSeries(0, period)
	pr.Attach()
	return pr
}

func rig() (*platform.Platform, *Probe) {
	p := platform.NewTC2()
	p.SetGovernor(ppm.New(ppm.DefaultConfig(0)))
	p.AddTask(task.Spec{
		Name: "alpha", Priority: 1, MinHR: 24, MaxHR: 30, Loop: true,
		Phases: []task.Phase{{HBCostLittle: 20, SpeedupBig: 2}},
	}, 2)
	p.AddTask(task.Spec{
		Name: "beta", Priority: 1, MinHR: 24, MaxHR: 30, Loop: true,
		Phases: []task.Phase{{HBCostLittle: 10, SpeedupBig: 2}},
	}, 3)
	p.AttachThermal(hw.NewThermalModel(p.Chip, nil, 25))
	return p, traced(p, 100*sim.Millisecond)
}

// csvLines writes the probe's series grid and splits it into lines.
func csvLines(t *testing.T, pr *Probe) []string {
	t.Helper()
	var sb strings.Builder
	if err := pr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(sb.String()), "\n")
}

func TestRecorderSamplesAtPeriod(t *testing.T) {
	p, pr := rig()
	p.Run(2 * sim.Second)
	// ~20 samples at 100 ms over 2 s (first sample at t≈0).
	if n := pr.PowerSeries.Len(); n < 19 || n > 22 {
		t.Errorf("rows = %d, want ≈20", n)
	}
}

func TestRecorderCSVShape(t *testing.T) {
	p, pr := rig()
	p.Run(sim.Second)
	lines := csvLines(t, pr)
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	header := strings.Split(lines[0], ",")
	want := []string{"t_s", "chip_W", "a15_MHz", "a15_W", "a15_on", "a15_C",
		"a7_MHz", "a7_W", "a7_on", "a7_C",
		"alpha_hr_norm", "alpha_core", "beta_hr_norm", "beta_core"}
	if strings.Join(header, ",") != strings.Join(want, ",") {
		t.Errorf("header %v, want %v", header, want)
	}
	// Every row has exactly the header's width.
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Fatalf("row %d has %d cells, header has %d", i, got, len(header))
		}
	}
}

func TestRecorderValuesPlausible(t *testing.T) {
	p, pr := rig()
	p.Run(3 * sim.Second)
	lines := csvLines(t, pr)
	header := strings.Split(lines[0], ",")
	last := strings.Split(lines[len(lines)-1], ",")
	col := func(name string) string {
		for i, h := range header {
			if h == name {
				return last[i]
			}
		}
		t.Fatalf("column %s missing", name)
		return ""
	}
	if col("chip_W") == "0.0000" {
		t.Error("chip power recorded as zero")
	}
	// alpha (demand 540, self-unbounded) normalized heart rate > 0.
	if col("alpha_hr_norm") == "0.0000" {
		t.Error("alpha heart rate recorded as zero")
	}
	// Cores are LITTLE-cluster IDs (2-4).
	if c := col("beta_core"); c != "2.0000" && c != "3.0000" && c != "4.0000" {
		t.Errorf("beta on core %s, want a LITTLE core", c)
	}
}

func TestRecorderWithoutThermal(t *testing.T) {
	p := platform.NewTC2()
	pr := traced(p, 100*sim.Millisecond)
	p.Run(500 * sim.Millisecond)
	var sb strings.Builder
	if err := pr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "_C,") {
		t.Error("thermal columns present without a thermal model")
	}
}

// TestRecorderSamplingNoDrift is the regression test for the sampling-drift
// bug: with a period that the tick grid does not divide (3.3 ms on a 1 ms
// tick), a `next = now + period` re-arm quantizes every deadline up to the
// next tick and accumulates the rounding, stretching the effective period
// to 4 ms (≈2500 rows over 10 s). Re-arming on the grid keeps the long-run
// average rate exact.
func TestRecorderSamplingNoDrift(t *testing.T) {
	p := platform.NewTC2()
	pr := traced(p, sim.FromMillis(3.3))
	p.Run(10 * sim.Second)
	want := int(10 * sim.Second / sim.FromMillis(3.3)) // ≈3030 deadlines
	if n := pr.PowerSeries.Len(); n < want-5 || n > want+5 {
		t.Errorf("rows = %d over 10 s at 3.3 ms, want ≈%d (sampling drift)", n, want)
	}
}

// TestRecorderLateTaskBackfilledWithNaN is the regression test for the
// late-task hole: a task added to the platform after the grid started must
// get its own column pair, with every row sampled before its arrival read
// as NaN — distinguishable from the 0 an exited task reports.
func TestRecorderLateTaskBackfilledWithNaN(t *testing.T) {
	p, pr := rig()
	p.Run(sim.Second)
	early := pr.PowerSeries.Len()
	if early == 0 {
		t.Fatal("no rows before the late task")
	}
	gamma := p.AddTask(task.Spec{
		Name: "gamma", Priority: 1, MinHR: 24, MaxHR: 30, Loop: true,
		Phases: []task.Phase{{HBCostLittle: 10, SpeedupBig: 2}},
	}, 4)
	p.Run(sim.Second)
	late := pr.PowerSeries.Len()
	p.RemoveTasks(gamma)
	p.Run(sim.Second)

	lines := csvLines(t, pr)
	header := strings.Split(lines[0], ",")
	col := -1
	for i, h := range header {
		if h == "gamma_core" {
			col = i
		}
	}
	if col != len(header)-1 {
		t.Fatalf("late task's columns are not last: %v", header)
	}
	for i, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("row %d has %d cells, header has %d (ragged CSV)", i, len(cells), len(header))
		}
		switch got := cells[col]; {
		case i < early && got != "NaN":
			t.Errorf("row %d (before gamma existed) gamma_core = %q, want NaN", i, got)
		case i >= early && i < late && (got == "NaN" || got == "0.0000"):
			t.Errorf("row %d (gamma live) gamma_core = %q, want its core", i, got)
		case i >= late && got != "0.0000":
			t.Errorf("row %d (gamma exited) gamma_core = %q, want 0", i, got)
		}
	}
}

// TestTwoRecordersDoNotDoubleAdvanceThermal: thermal time belongs to the
// platform. Attaching the model once per traced probe over the same
// platform must not make the die heat faster.
func TestTwoRecordersDoNotDoubleAdvanceThermal(t *testing.T) {
	run := func(probes int) float64 {
		p := platform.NewTC2()
		p.AddTask(task.Spec{
			Name: "hot", Priority: 1, MinHR: 24, MaxHR: 30, Loop: true,
			Phases: []task.Phase{{HBCostLittle: 100, SpeedupBig: 2}},
		}, 0)
		th := hw.NewThermalModel(p.Chip, nil, 25)
		for i := 0; i < probes; i++ {
			p.AttachThermal(th)
			traced(p, 100*sim.Millisecond)
		}
		p.Run(5 * sim.Second)
		return th.Temp(0)
	}
	one, two := run(1), run(2)
	if one <= 25 {
		t.Fatalf("thermal model did not advance at all: %.2f °C", one)
	}
	if one != two {
		t.Errorf("temperature depends on probe count: %v °C (1 probe) vs %v °C (2 probes)", one, two)
	}
}

// TestWriteCSVJoinsOnTime: columns sampled at different times share one
// time axis; a column with no sample at a row's time reads NaN.
func TestWriteCSVJoinsOnTime(t *testing.T) {
	var a, b Series
	a.Add(sim.Second, 1)
	a.Add(2*sim.Second, 2)
	b.Add(2*sim.Second, 20)
	b.Add(3*sim.Second, 30)
	var sb strings.Builder
	if err := WriteCSV(&sb, []Column{{"a", &a}, {"b", &b}}); err != nil {
		t.Fatal(err)
	}
	want := "t_s,a,b\n" +
		"1.0000,1.0000,NaN\n" +
		"2.0000,2.0000,20.0000\n" +
		"3.0000,NaN,30.0000\n"
	if got := sb.String(); got != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestSeriesGridStartsAfterFrom: a grid anchored at the warm-up samples the
// first measured tick, then every period on the grid counted from the
// anchor; gauges share the grid.
func TestSeriesGridStartsAfterFrom(t *testing.T) {
	p := platform.NewTC2()
	pr := NewProbe(p, sim.Second)
	pr.EnableSeries(sim.Second, 250*sim.Millisecond)
	calls := 0
	g := pr.Gauge("calls", func() float64 { calls++; return float64(calls) })
	pr.Attach()
	p.Run(2 * sim.Second)
	want := []sim.Time{sim.Second + sim.Millisecond, 1250 * sim.Millisecond,
		1500 * sim.Millisecond, 1750 * sim.Millisecond, 2 * sim.Second}
	for _, s := range []*Series{pr.PowerSeries, g} {
		if len(s.Times) != len(want) {
			t.Fatalf("times %v, want %v", s.Times, want)
		}
		for i := range want {
			if s.Times[i] != want[i] {
				t.Errorf("sample %d at %v, want %v", i, s.Times[i], want[i])
			}
		}
	}
	for i, v := range g.Values {
		if v != float64(i+1) {
			t.Errorf("gauge values %v, want one read per sample", g.Values)
			break
		}
	}
}
