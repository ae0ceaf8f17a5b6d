package exp

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pricepower/internal/metrics"
	"pricepower/internal/sim"
	"pricepower/internal/workload"
)

// shortRun keeps comparative tests quick; the full durations run in
// cmd/experiments and the benchmark harness.
const shortRun = 30 * sim.Second

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 2 {
		t.Fatalf("Table 1 has %d rows, want 2", len(tbl.Rows))
	}
	// Round 2 of the paper: bids 1.33/0.66, supplies 200/100.
	r2 := tbl.Rows[1]
	if r2[1] != "1.33" || r2[2] != "0.67" && r2[2] != "0.66" {
		t.Errorf("round 2 bids = %s/%s, want 1.33/0.66", r2[1], r2[2])
	}
	if r2[4] != "200" || r2[5] != "100" {
		t.Errorf("round 2 supplies = %s/%s, want 200/100", r2[4], r2[5])
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tbl := Table2()
	if len(tbl.Rows) != 2 {
		t.Fatalf("Table 2 has %d rows, want 2", len(tbl.Rows))
	}
	// Round 3: inflation; round 4: supply 400, satisfied 300/100.
	r3, r4 := tbl.Rows[0], tbl.Rows[1]
	if r3[7] != "400" {
		t.Errorf("round 3 supply = %s, want 400 (stepped up)", r3[7])
	}
	if r4[5] != "300" || r4[6] != "100" {
		t.Errorf("round 4 supplies = %s/%s, want 300/100", r4[5], r4[6])
	}
}

func TestTable3ShowsStateTrajectory(t *testing.T) {
	tbl := Table3()
	if len(tbl.Rows) == 0 {
		t.Fatal("Table 3 empty")
	}
	states := make(map[string]bool)
	for _, row := range tbl.Rows {
		states[row[len(row)-1]] = true
	}
	if !states["emergency"] {
		t.Error("trajectory never reached emergency")
	}
	if !states["threshold"] {
		t.Error("trajectory never reached threshold")
	}
	// Final state: threshold, supply 500.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[len(last)-1] != "threshold" {
		t.Errorf("final state = %s, want threshold", last[len(last)-1])
	}
	if last[13] != "500" {
		t.Errorf("final supply = %s, want 500", last[13])
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tbl := Table4()
	want := [][2]string{{"500", "900"}, {"400", "1080"}, {"1000", "675"}}
	for i, w := range want {
		if tbl.Rows[i][4] != w[0] || tbl.Rows[i][5] != w[1] {
			t.Errorf("phase %d: s/d = %s/%s, want %s/%s",
				i+1, tbl.Rows[i][4], tbl.Rows[i][5], w[0], w[1])
		}
	}
}

func TestTable5And6Render(t *testing.T) {
	t5 := Table5()
	if len(t5.Rows) != 8 {
		t.Errorf("Table 5 has %d rows, want 8", len(t5.Rows))
	}
	t6 := Table6()
	if len(t6.Rows) != 9 {
		t.Errorf("Table 6 has %d rows, want 9", len(t6.Rows))
	}
	wantClasses := []string{"light", "light", "light", "medium", "medium", "medium",
		"heavy", "heavy", "heavy"}
	for i, row := range t6.Rows {
		if row[1] != wantClasses[i] {
			t.Errorf("set %s class = %s, want %s", row[0], row[1], wantClasses[i])
		}
	}
}

func TestTable7ScalesRoughlyLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	small := MeasureTable7(Table7Config{2, 4, 8}, 5, 1)
	big := MeasureTable7(Table7Config{16, 8, 8}, 5, 1)
	if big < small {
		t.Errorf("overhead not growing: %v for 64 tasks vs %v for 1024", small, big)
	}
	tbl := Table7(Table7Quick, 3)
	if len(tbl.Rows) != len(Table7Quick) {
		t.Errorf("Table 7 rows = %d", len(tbl.Rows))
	}
}

func TestNewGovernorNames(t *testing.T) {
	for _, name := range GovernorNames {
		g, err := NewGovernor(name, 0)
		if err != nil {
			t.Fatalf("NewGovernor(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("governor name = %s, want %s", g.Name(), name)
		}
	}
	if _, err := NewGovernor("bogus", 0); err == nil {
		t.Error("NewGovernor accepted bogus name")
	}
}

func TestRunSetProducesSaneResult(t *testing.T) {
	set, _ := workload.SetByName("l2")
	r, err := RunSet("PPM", set, 0, shortRun)
	if err != nil {
		t.Fatal(err)
	}
	if r.MissFrac < 0 || r.MissFrac > 1 {
		t.Errorf("miss fraction = %v", r.MissFrac)
	}
	if r.AvgPower <= 0 || r.AvgPower > 8.5 {
		t.Errorf("average power = %v W", r.AvgPower)
	}
	if r.Energy <= 0 {
		t.Errorf("energy = %v J", r.Energy)
	}
}

// TestComparativeShapes pins the paper's qualitative results on a reduced
// duration: (1) HL misses least on light sets but draws the most power;
// (2) PPM misses least on average; (3) PPM's mean power is well below HL's.
func TestComparativeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c, err := RunComparative(0, 60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	miss := c.MeanMiss()
	power := c.MeanPower()
	const ppm, hpm, hl = 0, 1, 2

	if miss[ppm] >= miss[hl] {
		t.Errorf("PPM mean miss %.3f not below HL %.3f", miss[ppm], miss[hl])
	}
	if power[hl] <= power[ppm] || power[hl] <= power[hpm] {
		t.Errorf("HL power %.2f not the highest (PPM %.2f, HPM %.2f)",
			power[hl], power[ppm], power[hpm])
	}
	// Light sets: HL essentially never misses (races to the big cluster).
	for i := 0; i < 3; i++ {
		if c.Results[i][hl].MissFrac > 0.05 {
			t.Errorf("HL miss on %s = %.3f, want ≈0", c.Results[i][hl].Set,
				c.Results[i][hl].MissFrac)
		}
	}
	// Medium+heavy sets: PPM beats HL everywhere.
	for i := 3; i < 9; i++ {
		if c.Results[i][ppm].MissFrac > c.Results[i][hl].MissFrac+0.05 {
			t.Errorf("PPM worse than HL on %s: %.3f vs %.3f",
				c.Results[i][ppm].Set, c.Results[i][ppm].MissFrac, c.Results[i][hl].MissFrac)
		}
	}
	// Rendering works.
	if s := c.MissTable("fig4").String(); !strings.Contains(s, "l1") {
		t.Error("miss table missing sets")
	}
	if s := c.PowerTable("fig5").String(); !strings.Contains(s, "mean") {
		t.Error("power table missing mean row")
	}
}

// TestTDPComparative pins Figure 6's shape: under a 4 W cap PPM's mean miss
// fraction stays below both baselines'.
func TestTDPComparative(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c, err := RunComparative(4.0, 60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	miss := c.MeanMiss()
	if miss[0] >= miss[1] {
		t.Errorf("PPM mean miss %.3f not below HPM %.3f under TDP", miss[0], miss[1])
	}
	if miss[0] >= miss[2] {
		t.Errorf("PPM mean miss %.3f not below HL %.3f under TDP", miss[0], miss[2])
	}
}

func TestFig7PriorityIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, equal, prio, err := Fig7(60 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("Fig 7 table rows = %d", len(tbl.Rows))
	}
	// (a) equal priorities: both tasks spend comparable, substantial time
	// outside the range.
	if equal.SwaptionsOutside < 0.05 || equal.BodytrackOutside < 0.05 {
		t.Errorf("equal-priority outsides = %.3f/%.3f, want both substantial",
			equal.SwaptionsOutside, equal.BodytrackOutside)
	}
	// (b) prioritized: swaptions improves markedly, bodytrack degrades.
	if prio.SwaptionsOutside >= equal.SwaptionsOutside {
		t.Errorf("priority 7 did not reduce swaptions outside time: %.3f vs %.3f",
			prio.SwaptionsOutside, equal.SwaptionsOutside)
	}
	if prio.BodytrackOutside <= equal.BodytrackOutside {
		t.Errorf("bodytrack did not suffer: %.3f vs %.3f",
			prio.BodytrackOutside, equal.BodytrackOutside)
	}
	if prio.SwaptionsSeries.Len() == 0 {
		t.Error("no heart-rate series captured")
	}
}

// TestFig8SeriesShareGrid: the heart-rate and savings series are sampled
// together on the figure grid, so each row of fig8.csv holds all three
// values of one instant.
func TestFig8SeriesShareGrid(t *testing.T) {
	r, err := RunFig8(sim.Second, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := r.X264Series.Times
	if len(want) != 13 { // the first measured tick, then 5.25 s … 8 s
		t.Fatalf("x264 series has %d samples, want 13", len(want))
	}
	for name, s := range map[string]*metrics.Series{"swaptions": r.SwaptionsSeries, "savings": r.SavingsSeries} {
		if !slices.Equal(s.Times, want) {
			t.Errorf("%s sampled at %v, x264 at %v", name, s.Times, want)
		}
		for i, v := range s.Values {
			if math.IsNaN(v) {
				t.Errorf("%s sample %d is NaN", name, i)
			}
		}
	}
}

// TestFig8DormantWindowIsDormant: the dormant window is x264's dormant
// phase. x264 overshoots its range while dormant, so no tick counted in
// that window may find it below range; a window offset from x264's phase
// clock (which starts at creation, not after the warm-up) takes in ticks
// of the collapsed active phase.
func TestFig8DormantWindowIsDormant(t *testing.T) {
	for _, d := range []struct{ dormant, active sim.Time }{
		{sim.Second, sim.Second}, {3 * sim.Second, 2 * sim.Second}, {10 * sim.Second, 10 * sim.Second},
	} {
		r, err := RunFig8(d.dormant, d.active)
		if err != nil {
			t.Fatal(err)
		}
		if r.X264BelowDormant != 0 {
			t.Errorf("dormant %v, active %v: x264 below range in %.1f%% of the dormant window, want none",
				d.dormant, d.active, 100*r.X264BelowDormant)
		}
	}
}

func TestFig8SavingsDynamics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, r, err := Fig8(40*sim.Second, 120*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Dormant phase: x264 easily meets (indeed overshoots) its goal — it
	// spends time above its range but never below it.
	if r.X264BelowDormant != 0 {
		t.Errorf("x264 below-range fraction in dormant phase = %.3f", r.X264BelowDormant)
	}
	// Savings accumulate during dormancy and deplete during activity.
	if r.SavingsSeries.Len() == 0 || r.SavingsSeries.Max() <= 0 {
		t.Fatal("no savings accumulated")
	}
	if r.SavingsDepleted == 0 {
		t.Error("savings never depleted during the active phase")
	}
	// After depletion the active-phase demand cannot be sustained: x264
	// spends most of the active phase outside its range, while swaptions —
	// which recovers its fair share once the savings are gone — suffers
	// strictly less.
	if r.X264OutsideActive <= 0.3 {
		t.Errorf("x264 outside fraction in active phase = %.3f, want substantial",
			r.X264OutsideActive)
	}
	if r.SwapOutsideActive >= r.X264OutsideActive {
		t.Errorf("swaptions outside %.3f not below x264's %.3f in active phase",
			r.SwapOutsideActive, r.X264OutsideActive)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}, Note: "n"}
	tbl.AddRow(1, 2.5)
	s := tbl.String()
	for _, want := range []string{"T", "a", "bb", "1", "2.5", "(n)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	var sb strings.Builder
	tbl.CSV(&sb)
	if got := sb.String(); got != "a,bb\n1,2.5\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{1.5: "1.5", 2: "2", 0.25: "0.25", 0: "0"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
