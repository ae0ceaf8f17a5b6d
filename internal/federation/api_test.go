package federation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pricepower/internal/fleet"
	"pricepower/internal/sim"
)

// TestSubmitRejectsUnboundedTraces: the federation's POST /submit shares
// the fleet's submit bounds. Counts adding up past fleet.MaxSubmitTasks
// and an at_ms that would overflow virtual time get a structured 400
// before any entry is expanded, and nothing is admitted. No test expands
// the counts.
func TestSubmitRejectsUnboundedTraces(t *testing.T) {
	f, err := New(Config{Seed: 3, Regions: []RegionConfig{
		{Name: "r0", Fleet: fleet.Config{Boards: 1}, Price: flat(0.1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewMux(f))
	defer srv.Close()

	for name, body := range map[string]string{
		"huge count":     `{"tasks":[{"bench":"swaptions","input":"n","count":2000000000}]}`,
		"counts add up":  `{"tasks":[{"bench":"swaptions","input":"n","count":40000,"region":"r0"},{"bench":"x264","input":"n","count":40000}]}`,
		"overflow at_ms": `{"tasks":[{"bench":"swaptions","input":"n","at_ms":9223372036854775807}]}`,
		"negative at_ms": `{"tasks":[{"bench":"swaptions","input":"n","at_ms":-1}]}`,
	} {
		resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct {
			Error string `json:"error"`
			Msg   string `json:"msg"`
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		} else if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error != "bad-request" {
			t.Errorf("%s: body = %+v (%v), want slug bad-request", name, apiErr, err)
		}
		resp.Body.Close()
	}
	if st := f.StateSnapshot(); st.Counters.Submitted != 0 {
		t.Fatalf("rejected traces admitted %d submissions", st.Counters.Submitted)
	}

	// A bounded trace on the same server still goes through.
	resp, err := http.Post(srv.URL+"/submit", "application/json",
		strings.NewReader(`{"tasks":[{"bench":"swaptions","input":"n","count":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bounded submit status = %d, want 200", resp.StatusCode)
	}
}

// FuzzParseFedTrace fuzzes the federation's arrival-trace decoder:
// ParseFedTrace followed by resolve never panics, and an accepted trace
// resolves to at most fleet.MaxSubmitTasks arrivals, each due in
// [0, fleet.MaxAtMS ms] and either price-routed or pinned to a known
// region. The corpus is seeded with every file in examples/regions
// (traces, price schedules and configs alike) and the fleet decoder's
// bound-edge bodies, here with region pins.
func FuzzParseFedTrace(f *testing.F) {
	paths, err := filepath.Glob("../../examples/regions/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example region files (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"tasks":[{"bench":"swaptions","input":"n","count":65536}]}`))
	f.Add([]byte(`{"tasks":[{"bench":"swaptions","input":"n","count":65537,"region":"eu-north"}]}`))
	f.Add([]byte(`{"tasks":[{"bench":"x264","input":"l","at_ms":9223372036854775807}]}`))
	f.Add([]byte(`{"tasks":[{"bench":"h264","input":"s","priority":-3,"count":-2,"at_ms":1099511627776,"region":"ap-south"}]}`))
	f.Add([]byte(`{"tasks":[{"bench":"x264","input":"n","region":"nowhere"}]}`))

	names := []string{"us-east", "eu-north", "ap-south"}
	var regions []RegionConfig
	for _, n := range names {
		regions = append(regions, RegionConfig{Name: n, Fleet: fleet.Config{Boards: 1}, Price: flat(0.1)})
	}
	fed, err := New(Config{Seed: 1, Regions: regions})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(fed.Close)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseFedTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		rs, err := fed.resolve(tr)
		if err != nil {
			return
		}
		if len(rs) > fleet.MaxSubmitTasks {
			t.Fatalf("trace resolved to %d arrivals, bound %d", len(rs), fleet.MaxSubmitTasks)
		}
		for i, r := range rs {
			if r.At < 0 || r.At > sim.Time(fleet.MaxAtMS)*sim.Millisecond {
				t.Fatalf("arrival %d due at %v, outside [0, %d ms]", i, r.At, fleet.MaxAtMS)
			}
			if r.Region < -1 || r.Region >= len(names) {
				t.Fatalf("arrival %d pinned to region %d of %d", i, r.Region, len(names))
			}
		}
	})
}
