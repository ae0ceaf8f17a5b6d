package main_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pricepower/internal/smoke"
)

// TestSmoke renders the static paper tables — no simulation, so it is fast
// regardless of -dur.
func TestSmoke(t *testing.T) {
	out := smoke.Run(t, "table1", "table6")
	if !strings.Contains(out, "Table") {
		t.Errorf("experiments rendered no tables:\n%s", out)
	}
}

// TestSmokeComparative runs one short simulated figure to cover the
// simulation path end to end.
func TestSmokeComparative(t *testing.T) {
	out := smoke.Run(t, "-dur", "1", "fig6")
	if !strings.Contains(out, "Figure 6") {
		t.Errorf("experiments fig6 output missing:\n%s", out)
	}
}

// TestSmokeCSV writes the Figure 7/8 series. Every row of fig8.csv holds
// all three values, sampled at the row's time on the 250 ms figure grid
// that starts at the first measured tick.
func TestSmokeCSV(t *testing.T) {
	dir := t.TempDir()
	smoke.Run(t, "-dur", "3", "-csv", dir, "fig7", "fig8")
	for _, f := range []string{"fig7a.csv", "fig7b.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if lines[0] != "t_s,savings,swaptions,x264" {
		t.Fatalf("fig8.csv header %q", lines[0])
	}
	// -dur 3: 1 s dormant + 3 s active after the 5 s warm-up.
	if len(lines) != 1+17 {
		t.Fatalf("fig8.csv has %d rows, want 17", len(lines)-1)
	}
	for i, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != 4 {
			t.Fatalf("row %d has %d cells: %q", i, len(cells), line)
		}
		want := "5.0010"
		if i > 0 {
			want = strconv.FormatFloat(5+0.25*float64(i), 'f', 4, 64)
		}
		if cells[0] != want {
			t.Errorf("row %d at %s s, want %s", i, cells[0], want)
		}
		for _, c := range cells[1:] {
			if _, err := strconv.ParseFloat(c, 64); err != nil || c == "NaN" {
				t.Errorf("row %d: cell %q is not a sample: %q", i, c, line)
			}
		}
	}
}
