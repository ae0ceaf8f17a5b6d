package main_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pricepower/internal/smoke"
	"pricepower/internal/telemetry"
)

// TestSmoke drives a short checked run: the binary must finish, print a
// summary and report the invariant checker clean.
func TestSmoke(t *testing.T) {
	out := smoke.Run(t, "-set", "l1", "-governor", "PPM", "-tdp", "4", "-dur", "1", "-check")
	if !strings.Contains(out, "invariant checker: clean run") {
		t.Errorf("checked run did not report clean:\n%s", out)
	}
}

// TestSmokeEvents drives a short run with -events and requires the JSONL
// stream to be readable and non-trivial. The -http server is exercised by
// scripts/smoke.sh (it blocks until interrupted, so it has no place in a
// unit test).
func TestSmokeEvents(t *testing.T) {
	file := filepath.Join(t.TempDir(), "events.jsonl")
	out := smoke.Run(t, "-set", "l1", "-governor", "PPM", "-tdp", "4", "-dur", "1", "-events", file)
	if !strings.Contains(out, "events written to") {
		t.Errorf("run did not report the event log:\n%s", out)
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("event log unreadable: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty event log from a TDP-constrained run")
	}
	kinds := make(map[telemetry.Kind]bool)
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	// -events records all kinds, so the high-volume market events must be
	// present alongside the low-volume ones.
	for _, k := range []telemetry.Kind{telemetry.KindAllowance, telemetry.KindPrice, telemetry.KindBid} {
		if !kinds[k] {
			t.Errorf("event log has no %v events", k)
		}
	}
}

func TestSmokeList(t *testing.T) {
	out := smoke.Run(t, "-list")
	for _, set := range []string{"l1", "m2", "h3"} {
		if !strings.Contains(out, set) {
			t.Errorf("-list output missing set %s:\n%s", set, out)
		}
	}
}
