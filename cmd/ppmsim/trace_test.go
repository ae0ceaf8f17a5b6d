package main_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/smoke"
)

var update = flag.Bool("update", false, "regenerate the trace CSV golden digest")

const traceGolden = "testdata/trace_m2_PPM_4W_1s.digest"

// traceRun drives one short m2 run under PPM at 4 W with -trace plus the
// extra flags, and returns the summary output and the CSV.
func traceRun(t *testing.T, extra ...string) (string, string) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "run.csv")
	args := append([]string{"-set", "m2", "-governor", "PPM", "-tdp", "4", "-dur", "1", "-trace", file}, extra...)
	out := smoke.Run(t, args...)
	if !strings.Contains(out, "trace written to") {
		t.Errorf("run did not report the trace:\n%s", out)
	}
	csv, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace CSV has %d lines", len(lines))
	}
	width := strings.Count(lines[0], ",")
	for i, line := range lines[1:] {
		if n := strings.Count(line, ","); n != width {
			t.Fatalf("trace row %d has %d cells, header has %d (ragged CSV)", i, n+1, width+1)
		}
	}
	return out, string(csv)
}

func csvDigest(csv string) string {
	return fmt.Sprintf("%016x", uint64(check.NewDigest().String(csv)))
}

// TestTraceGolden pins the bytes of the -trace CSV: its digest must match
// the fixture, and attaching the invariant checker must not change it.
// Regenerate with `go test ./cmd/ppmsim -run TestTraceGolden -update`.
func TestTraceGolden(t *testing.T) {
	_, plain := traceRun(t)
	got := csvDigest(plain)
	if *update {
		if err := os.MkdirAll(filepath.Dir(traceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGolden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatalf("%v — run with -update to create it", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("trace CSV digest %s != golden %s", got, w)
	}
	out, checked := traceRun(t, "-check")
	if !strings.Contains(out, "invariant checker: clean run") {
		t.Errorf("checked run did not report clean:\n%s", out)
	}
	if d := csvDigest(checked); d != got {
		t.Errorf("trace CSV digest with -check %s != without %s", d, got)
	}
}

// TestSmokeTraceFaults traces a checked run under a fault scenario: the CSV
// is written and not ragged, and the checker reports the run clean.
func TestSmokeTraceFaults(t *testing.T) {
	out, _ := traceRun(t, "-check", "-faults", "../../examples/faults/sensor-dropout.json")
	for _, want := range []string{"fault windows activated", "invariant checker: clean run"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output lacks %q:\n%s", want, out)
		}
	}
}
