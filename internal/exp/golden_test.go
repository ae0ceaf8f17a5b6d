package exp

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/lbt"
	"pricepower/internal/sim"
	"pricepower/internal/workload"
)

var update = flag.Bool("update", false, "regenerate the golden digest fixtures")

const goldenPath = "testdata/golden_digests.txt"

// goldenRun is one named deterministic experiment whose digest is pinned.
type goldenRun struct {
	name string
	run  func() (string, error)
}

// tableDigest folds rendered tables into one hex digest — pinning both the
// numbers and their formatting.
func tableDigest(tables ...*Table) string {
	d := check.NewDigest()
	for _, t := range tables {
		d = d.String(t.String())
	}
	return fmt.Sprintf("%016x", uint64(d))
}

// goldenRuns enumerates the pinned experiments: the paper's running
// examples (Tables 1–3), the platform tables (4–6), a deterministic
// Table-7-scale market trace, short comparative runs behind Figures 4–6,
// the priority study (Figure 7), the dormant/active trace (Figure 8), the
// design-knob ablation, and per-governor replay traces of one workload set.
func goldenRuns() []goldenRun {
	runs := []goldenRun{
		{"table1", func() (string, error) { return tableDigest(Table1()), nil }},
		{"table2", func() (string, error) { return tableDigest(Table2()), nil }},
		{"table3", func() (string, error) { return tableDigest(Table3()), nil }},
		{"table4", func() (string, error) { return tableDigest(Table4()), nil }},
		{"table5", func() (string, error) { return tableDigest(Table5()), nil }},
		{"table6", func() (string, error) { return tableDigest(Table6()), nil }},
		// Table 7 itself measures wall-clock; what is pinned here is the
		// market state trajectory of a Table-7-scale market with LBT moves
		// applied — the digest is time-free and fully deterministic.
		{"table7-market", func() (string, error) {
			m, planner := BuildScaledMarket(Table7Config{V: 4, C: 4, T: 8}, 42)
			rec := check.NewRecorder("table7-market", 42, "V=4 C=4 T=8", check.RecorderOptions{})
			for i := 0; i < 120; i++ {
				m.StepOnce()
				if i%10 == 9 {
					if mv := planner.PlanForCluster(0, lbt.Migrate); mv != nil {
						m.MoveTask(mv.Agent, mv.ToCore)
					}
				}
				rec.RecordRound(m)
			}
			return rec.Trace().FinalHex(), nil
		}},
		{"fig4-6", func() (string, error) {
			c, err := RunComparative(4, sim.Second)
			if err != nil {
				return "", err
			}
			return tableDigest(
				c.MissTable("fig4"), c.PowerTable("fig5"), c.EfficiencyTable("fig6")), nil
		}},
		{"fig7", func() (string, error) {
			tb, _, _, err := Fig7(sim.Second)
			if err != nil {
				return "", err
			}
			return tableDigest(tb), nil
		}},
		{"fig8", func() (string, error) {
			tb, _, err := Fig8(sim.Second, sim.Second)
			if err != nil {
				return "", err
			}
			return tableDigest(tb), nil
		}},
		{"ablation", func() (string, error) {
			tb, err := Ablation(sim.Second)
			if err != nil {
				return "", err
			}
			return tableDigest(tb), nil
		}},
	}
	// One full platform replay trace per governor: market digests every
	// round (PPM only — the others have no market) plus platform digests on
	// a 100 ms grid.
	for _, gov := range GovernorNames {
		gov := gov
		runs = append(runs, goldenRun{"runset-" + gov, func() (string, error) {
			set, _ := workload.SetByName("m2")
			rec := check.NewRecorder("runset-"+gov, 0, "m2/4W/1s",
				check.RecorderOptions{SampleEvery: 100 * sim.Millisecond})
			if _, err := RunSetOpts(gov, set, 4, sim.Second, RunOptions{Recorder: rec}); err != nil {
				return "", err
			}
			return rec.Trace().FinalHex(), nil
		}})
	}
	return runs
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenDigests pins every named experiment's digest. A mismatch means
// the simulation's numerical behavior changed: if that is intentional,
// regenerate with `go test ./internal/exp -run TestGoldenDigests -update`;
// if not, EXPERIMENTS.md ("Bisecting a digest mismatch") explains how to
// localize the diverging round with check.Replay.
func TestGoldenDigests(t *testing.T) {
	runs := goldenRuns()
	got := make(map[string]string, len(runs))
	for _, r := range runs {
		hex, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = hex
	}

	if *update {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# Golden digests of the deterministic experiment set.\n")
		b.WriteString("# Regenerate: go test ./internal/exp -run TestGoldenDigests -update\n")
		b.WriteString("# Digests are bit-exact FNV-1a folds over float64 state; they are\n")
		b.WriteString("# specific to this module's code, not to the host architecture, as\n")
		b.WriteString("# long as the compiler does not fuse floating-point operations.\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		return
	}

	want := readGoldens(t)
	if want == nil {
		t.Fatalf("%s missing — run with -update to create it", goldenPath)
	}
	for name, hex := range got {
		g, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden recorded — run with -update", name)
			continue
		}
		if g != hex {
			t.Errorf("%s: digest %s != golden %s (intentional change? re-run with -update; "+
				"otherwise see EXPERIMENTS.md on bisecting digest mismatches)", name, hex, g)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("stale golden %s — run with -update", name)
		}
	}
}

// TestGoldenStability re-runs a pinned experiment twice in-process: the
// digests must agree with themselves regardless of what the fixture says.
func TestGoldenStability(t *testing.T) {
	for _, r := range goldenRuns() {
		if r.name != "table7-market" && r.name != "runset-PPM" {
			continue
		}
		a, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: back-to-back runs digest %s then %s", r.name, a, b)
		}
	}
}
