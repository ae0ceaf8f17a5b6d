package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pricepower/internal/fleet"
	"pricepower/internal/smoke"
)

const burst = "../../examples/fleet/burst.json"

// digestsRe extracts the federation digest vector from a summary.
var digestsRe = regexp.MustCompile(`(?m)^  digests: ([0-9a-f ]+)$`)

func digests(t *testing.T, out string) string {
	t.Helper()
	m := digestsRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no digest vector in output:\n%s", out)
	}
	return m[1]
}

// oneRegion writes a one-region config — a plain fleet behind the
// federation: flat price, one 100 ms barrier per epoch, seed 7 — with
// the given region fields, next to a copy of the example sensor-dropout
// scenario, and returns its path.
func oneRegion(t *testing.T, fields string) string {
	t.Helper()
	dir := t.TempDir()
	dropout, err := os.ReadFile("../../examples/fleet/sensor-dropout.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sensor-dropout.json"), dropout, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fmt.Sprintf(`{"seed": 7, "batch_ms": 100, "epoch_barriers": 1, "regions": [
		{"name": "fleet", "diurnal": {"base": 0.1, "amp": 0, "peak_hour": 0, "steps": 1}, %s}]}`, fields)
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mustContain fails unless out carries every wanted substring.
func mustContain(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("summary missing %q:\n%s", w, out)
		}
	}
}

// TestSmokeSynth boots a synthesized 3-region federation, plays the
// burst trace for a handful of epochs, and checks the summary: every
// region reported, work submitted, and a digest vector printed.
func TestSmokeSynth(t *testing.T) {
	out := smoke.Run(t, "-regions", "3", "-boards", "1", "-seed", "7",
		"-trace", burst, "-epochs", "6", "-check")
	mustContain(t, out, "federation: 3 regions", "region r0:", "region r1:", "region r2:", "digests: ")
}

// TestSmokeFaultedReplay runs the example faulted federation (board crash
// in us-east, region outage in ap-south) twice and diffs the digest
// vectors — the binary-level replay gate the smoke script relies on.
func TestSmokeFaultedReplay(t *testing.T) {
	args := []string{"-config", "../../examples/regions/federation.json",
		"-trace", "../../examples/regions/follow-the-sun.json", "-epochs", "10", "-check"}
	a := digests(t, smoke.Run(t, args...))
	b := digests(t, smoke.Run(t, args...))
	if a != b {
		t.Fatalf("faulted federation replay diverged:\n  run 1: %s\n  run 2: %s", a, b)
	}
	if len(strings.Fields(a)) != 4 {
		t.Fatalf("digest vector has %d entries, want 4 (controller + 3 regions): %s", len(strings.Fields(a)), a)
	}
}

// TestSmokeBatch plays the burst trace through a 4-board one-region
// fleet for 50 barriers: everything is routed (nothing shed, nothing
// queued at the end) and the fleet line reports all four boards.
func TestSmokeBatch(t *testing.T) {
	out := smoke.Run(t, "-config", oneRegion(t, `"boards": 4`), "-trace", burst, "-epochs", "50", "-check")
	mustContain(t, out, "federation: 1 regions", "queued 0  live 15", "shed 0\n",
		"    fleet: 4 boards  50 batches collected (50 issued)")
}

// TestSmokeSkewed replays the batch smoke with bounded-skew pipelining:
// boards running up to 4 barriers ahead converge to the same zero-loss
// end state, with the skew tail flushed before the summary (in-flight
// reads 0 and every issued barrier was collected).
func TestSmokeSkewed(t *testing.T) {
	out := smoke.Run(t, "-config", oneRegion(t, `"boards": 4, "max_skew": 4`), "-trace", burst, "-epochs", "50", "-check")
	mustContain(t, out, "queued 0  live 15", "shed 0\n",
		"50 batches collected (50 issued)  in-flight 0")
}

// TestSmokeFaulted runs the trace with one board under the example
// sensor-dropout scenario and degraded auto-drain on: nothing is shed,
// and the degraded board was evacuated at least once. (It may resume by
// the end: once empty, a dropped-out sensor has no load to contradict
// it, so the degraded flag clears and the fleet re-admits the board.)
func TestSmokeFaulted(t *testing.T) {
	out := smoke.Run(t, "-config",
		oneRegion(t, `"boards": 4, "drain_degraded": 3, "faults": {"1": "sensor-dropout.json"}`),
		"-trace", burst, "-epochs", "100", "-check")
	mustContain(t, out, "shed 0\n", "    fleet: 4 boards")
	if strings.Contains(out, "drained 0 ") {
		t.Errorf("faulted board was never drained:\n%s", out)
	}
}

// TestSmokeSeedFlagOverridesConfig: an explicit -seed replaces the
// config's seed even when it equals the flag's default, so -seed 1 and
// the config's own seed (1234) print different digest vectors, while
// -seed 1234 reproduces the config's run.
func TestSmokeSeedFlagOverridesConfig(t *testing.T) {
	args := []string{"-config", "../../examples/regions/federation.json",
		"-trace", "../../examples/regions/follow-the-sun.json", "-epochs", "3"}
	own := digests(t, smoke.Run(t, args...))
	one := digests(t, smoke.Run(t, append(args, "-seed", "1")...))
	same := digests(t, smoke.Run(t, append(args, "-seed", "1234")...))
	if own == one {
		t.Errorf("-seed 1 ignored beside a config with seed 1234: both print %s", own)
	}
	if own != same {
		t.Errorf("-seed 1234 differs from the config's own seed 1234:\n  %s\n  %s", own, same)
	}
}

// TestSuperviseNamesHungBoards: crash-only errors are absorbed and
// logged; a liveness timeout, wrapped as the federation wraps region
// errors, is returned after naming every board that never replied.
func TestSuperviseNamesHungBoards(t *testing.T) {
	var w bytes.Buffer
	crash := errors.Join(&fleet.CrashError{Board: 3, Barrier: 9, Err: errors.New("boom")})
	if err := supervise(&w, crash); err != nil {
		t.Fatalf("crash-only error not absorbed: %v", err)
	}
	if !strings.Contains(w.String(), "board 3 crashed") || !strings.Contains(w.String(), "supervised; run continues") {
		t.Errorf("crash not logged: %q", w.String())
	}
	w.Reset()
	hang := fmt.Errorf("federation: region eu: %w", &fleet.LivenessError{Barrier: 12, Deadline: 30e9, Boards: []int{1, 4}})
	if err := supervise(&w, hang); err != hang {
		t.Fatalf("liveness error = %v, want it returned unchanged", err)
	}
	for _, want := range []string{"deadline 30s exceeded at barrier 12", "board 1: no step reply", "board 4: no step reply"} {
		if !strings.Contains(w.String(), want) {
			t.Errorf("liveness dump missing %q:\n%s", want, w.String())
		}
	}
}
