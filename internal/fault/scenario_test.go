package fault

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// scenarioFiles lists the example fault scenarios: every file under
// examples/faults plus the board-level ones the fleet and region configs
// name.
func scenarioFiles(t testing.TB) []string {
	t.Helper()
	var out []string
	for _, pat := range []string{
		"../../examples/faults/*.json",
		"../../examples/fleet/board-*.json",
		"../../examples/fleet/sensor-dropout.json",
		"../../examples/regions/board-crash.json",
		"../../examples/regions/outage-*.json",
	} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	if len(out) == 0 {
		t.Fatal("no example scenarios found")
	}
	return out
}

// TestParseScenarioRejectsUnknownFields: a misspelled key is an error,
// not a silently zeroed field, as is data after the scenario, and every
// example scenario uses only known keys.
func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"faults":[{"type":"board-crash","strat":6,"rouns":1}]}`,
		`{"faults":[{"type":"power-noise","cluster":0,"start":1,"rounds":2,"magnitdue":3}]}`,
		`{"round_sm":10,"faults":[]}`,
		`{"seed":3,"faults":[]} {"seed":9} garbage`,
	} {
		if _, err := ParseScenario(strings.NewReader(body)); err == nil {
			t.Errorf("ParseScenario accepted %s", body)
		}
	}
	for _, path := range scenarioFiles(t) {
		if _, err := LoadScenario(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	sc, err := ParseScenario(strings.NewReader(`{"seed":3,"faults":[{"type":"board-crash","start":6,"rounds":1}]}`))
	if err != nil || sc.Seed != 3 || len(sc.Faults) != 1 || sc.Faults[0].Start != 6 || sc.Faults[0].Rounds != 1 {
		t.Fatalf("ParseScenario = %+v, %v", sc, err)
	}
}

// FuzzParseScenario: decoding never panics, Validate never panics on
// whatever decodes, an accepted scenario is refused once data follows
// it, and it survives a JSON round trip unchanged. Seeded with every
// example scenario.
func FuzzParseScenario(f *testing.F) {
	for _, path := range scenarioFiles(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"faults":[{"type":"core-unplug","cluster":-1,"core":-4,"start":-1,"rounds":0}]}`))
	f.Add([]byte(`{"faults":[{"type":"board-crash","strat":6,"rouns":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := ParseScenario(bytes.NewReader(append(data[:len(data):len(data)], " {}"...))); err == nil {
			t.Fatal("accepted a scenario followed by trailing data")
		}
		_ = sc.Validate(2, 8)
		_ = sc.Validate(0, 0)
		_ = sc.Period()
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenario(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded scenario rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip changed the scenario:\n  in  %+v\n  out %+v", sc, back)
		}
	})
}
