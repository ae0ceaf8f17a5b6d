package federation

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// exampleFS maps every file under examples/regions and examples/fleet
// into one flat directory, the shape a config and its files travel in.
func exampleFS(t testing.TB) fstest.MapFS {
	t.Helper()
	m := fstest.MapFS{}
	for _, pat := range []string{"../../examples/regions/*.json", "../../examples/fleet/*.json"} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files for %s (%v)", pat, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			m[filepath.Base(p)] = &fstest.MapFile{Data: data}
		}
	}
	return m
}

// openLog is an fs.FS that records every name it is asked to open.
type openLog struct {
	fs.FS
	names []string
}

func (o *openLog) Open(name string) (fs.File, error) {
	o.names = append(o.names, name)
	return o.FS.Open(name)
}

// TestParseConfigLocalPathsOnly: the example configs parse (fleets with
// drain_degraded among them), and a config naming a file outside its own
// directory is refused, as are unknown fields (among them the retired
// "shards") and data after the config.
func TestParseConfigLocalPathsOnly(t *testing.T) {
	for _, path := range []string{
		"../../examples/regions/federation.json",
		"../../examples/fleet/fleet.json",
		"../../examples/fleet/chaos.json",
	} {
		if _, err := LoadConfig(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	cfg, err := LoadConfig("../../examples/fleet/fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	if fc := cfg.Regions[0].Fleet; fc.DrainDegradedAfter != 3 || len(fc.Faults) != 1 {
		t.Errorf("fleet config = %+v, want drain_degraded 3 and one faulted board", fc)
	}
	for _, name := range []string{"../regions/us-east.json", "/etc/hostname", "./us-east.json", "a/../us-east.json"} {
		body := `{"regions":[{"name":"x","boards":1,"price_trace":"` + name + `"}]}`
		if _, err := ParseConfig(strings.NewReader(body), exampleFS(t)); err == nil ||
			!strings.Contains(err.Error(), "not local") {
			t.Errorf("price_trace %q: err = %v, want a not-local refusal", name, err)
		}
	}
	shards := `{"regions":[{"name":"x","boards":1,"shards":1,"diurnal":{"base":0.1,"amp":0,"peak_hour":0}}]}`
	if _, err := ParseConfig(strings.NewReader(shards), exampleFS(t)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "shards"`) {
		t.Errorf("config naming shards: err = %v, want an unknown-field refusal", err)
	}
	for _, body := range []string{
		`{"regions":[{"name":"x","boards":1,"diurnal":{"base":0.1,"amp":0,"peak_hour":0},"drain_degraded":3,"drian":1}]}`,
		`{"tiers":[{"name":"a","min_priority":1},{"name":"b","min_priority":2}],"regions":[{"name":"x","boards":1,"diurnal":{"base":0.1,"amp":0,"peak_hour":0}}]}`,
		`{"regions":[]}`,
		`{"regions":[{"name":"x","boards":1,"diurnal":{"base":0.1,"amp":0,"peak_hour":0}}]} {"seed":9} garbage`,
	} {
		if _, err := ParseConfig(strings.NewReader(body), exampleFS(t)); err == nil {
			t.Errorf("ParseConfig accepted %s", body)
		}
	}
}

// FuzzParseConfig fuzzes the federation config decoder, the one
// configuration surface: decoding never panics; an accepted config has
// at least one region and valid (or default) tiers and is refused once
// data follows it; and every file it opens is local to the config's
// directory. Seeded with every example config and file.
func FuzzParseConfig(f *testing.F) {
	dir := exampleFS(f)
	names := make([]string, 0, len(dir))
	for name := range dir {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(dir[name].Data)
	}
	f.Add([]byte(`{"regions":[{"name":"x","boards":1,"price_trace":"../regions/us-east.json"}]}`))
	f.Add([]byte(`{"regions":[{"name":"x","boards":1,"diurnal":{"base":0.1,"amp":0.05,"peak_hour":3},"faults":{"0":"board-crash.json"},"outage":"outage-ap.json"}]}`))
	f.Add([]byte(`{"tiers":[{"name":"a","min_priority":3,"min_served_frac":2}],"regions":[{"name":"x","boards":1,"price_trace":"eu-north.json"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		log := &openLog{FS: dir}
		cfg, err := ParseConfig(bytes.NewReader(data), log)
		for _, name := range log.names {
			if !fs.ValidPath(name) {
				t.Fatalf("opened %q, outside the config's directory", name)
			}
		}
		if err != nil {
			return
		}
		if len(cfg.Regions) == 0 {
			t.Fatal("accepted a config with no regions")
		}
		if err := ValidateTiers(cfg.withDefaults().Tiers); err != nil {
			t.Fatalf("accepted invalid tiers: %v", err)
		}
		if _, err := ParseConfig(bytes.NewReader(append(data[:len(data):len(data)], " {}"...)), dir); err == nil {
			t.Fatal("accepted a config followed by trailing data")
		}
	})
}
