package fleet

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"pricepower/internal/sim"
)

// FuzzParseTrace drives the arrival-trace decoder with arbitrary bytes:
// ParseTrace followed by Resolve never panics, and an accepted trace
// resolves to at most MaxSubmitTasks specs, each due at a time in
// [0, MaxAtMS ms] and expanding an entry of the trace. The corpus is
// seeded with the repository's example traces (the federation one
// carries region pins, which plain Arrival entries reject) and the
// bound edges.
func FuzzParseTrace(f *testing.F) {
	for _, path := range []string{
		"../../examples/fleet/burst.json",
		"../../examples/regions/follow-the-sun.json",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"tasks":[{"bench":"swaptions","input":"n","count":65536}]}`))
	f.Add([]byte(`{"tasks":[{"bench":"swaptions","input":"n","count":65537}]}`))
	f.Add([]byte(`{"tasks":[{"bench":"x264","input":"l","at_ms":9223372036854775807}]}`))
	f.Add([]byte(`{"tasks":[{"bench":"h264","input":"s","priority":-3,"count":-2,"at_ms":1099511627776}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace[Arrival](bytes.NewReader(data))
		if err != nil {
			return
		}
		specs, err := tr.Resolve()
		if err != nil {
			return
		}
		if len(specs) > MaxSubmitTasks {
			t.Fatalf("trace resolved to %d specs, bound %d", len(specs), MaxSubmitTasks)
		}
		for i, ts := range specs {
			if ts.At < 0 || ts.At > sim.Time(MaxAtMS)*sim.Millisecond {
				t.Fatalf("spec %d due at %v, outside [0, %d ms]", i, ts.At, MaxAtMS)
			}
			if ts.Entry < 0 || ts.Entry >= len(tr.Tasks) {
				t.Fatalf("spec %d expands entry %d of %d", i, ts.Entry, len(tr.Tasks))
			}
		}
	})
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	if _, err := ParseTrace[Arrival](strings.NewReader(`{"tasks":[{"bench":"nope","input":"n"}]}`)); err != nil {
		t.Fatalf("ParseTrace rejected structurally valid trace: %v", err)
	}
	tr, _ := ParseTrace[Arrival](strings.NewReader(`{"tasks":[{"bench":"nope","input":"n"}]}`))
	if _, err := tr.Resolve(); err == nil {
		t.Error("Resolve accepted unknown benchmark")
	}
	if _, err := ParseTrace[Arrival](strings.NewReader(`{"tasks":[],"typo":1}`)); err == nil {
		t.Error("ParseTrace accepted unknown field")
	}
	if _, err := ParseTrace[Arrival](strings.NewReader(`{"tasks":[]}`)); err == nil {
		t.Error("ParseTrace accepted empty trace")
	}
}
