package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"pricepower/internal/fault"
	"pricepower/internal/fleet"
	"pricepower/internal/sim"
)

// fedFile is fedd's JSON config shape. Trace and scenario paths resolve
// relative to the config file's directory, so a config plus its traces
// travel as one directory (see examples/regions/).
type fedFile struct {
	Seed          uint64          `json:"seed"`
	BatchMS       float64         `json:"batch_ms,omitempty"`
	EpochBarriers int             `json:"epoch_barriers,omitempty"`
	HoursPerSec   float64         `json:"hours_per_sec,omitempty"`
	Hysteresis    float64         `json:"hysteresis,omitempty"`
	Tiers         []Tier          `json:"tiers,omitempty"`
	Migration     MigrationConfig `json:"migration"`
	Regions       []fedFileRegion `json:"regions"`
}

type fedFileRegion struct {
	Name     string  `json:"name"`
	Boards   int     `json:"boards"`
	TDP      float64 `json:"tdp,omitempty"`
	QueueCap int     `json:"queue_cap,omitempty"`
	MaxSkew  int     `json:"max_skew,omitempty"`
	// RestartAfter enables each board's crash supervisor (barriers).
	RestartAfter int `json:"restart_after,omitempty"`
	// DrainDegraded auto-drains a board after this many consecutive
	// degraded barriers (fleet.Config.DrainDegradedAfter; 0 = off).
	DrainDegraded int `json:"drain_degraded,omitempty"`
	// PriceTrace is the electricity schedule file (relative to the
	// config), or "" to synthesize a diurnal curve.
	PriceTrace string `json:"price_trace,omitempty"`
	// Diurnal parameterizes the synthetic schedule when PriceTrace is
	// empty: base ± amp $/kWh peaking at peak_hour.
	Diurnal *struct {
		Base     float64 `json:"base"`
		Amp      float64 `json:"amp"`
		PeakHour float64 `json:"peak_hour"`
		Steps    int     `json:"steps,omitempty"`
	} `json:"diurnal,omitempty"`
	// Faults maps board ID → board/platform fault scenario file.
	Faults map[string]string `json:"faults,omitempty"`
	// Outage is a region-outage scenario file (fault.RegionOutage
	// windows in federation epochs).
	Outage string `json:"outage,omitempty"`
}

// LoadConfig reads a fedd federation config file into a Config ready
// for New (Check stays off; the caller decides). Files the config names
// resolve inside the config file's directory.
func LoadConfig(path string) (Config, error) {
	fh, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer fh.Close()
	cfg, err := ParseConfig(fh, os.DirFS(filepath.Dir(path)))
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// ParseConfig decodes a federation config, rejecting unknown fields and
// data after the JSON value, and loads the price traces and fault
// scenarios it names from dir. Each such path must be local to dir
// (fs.ValidPath: relative, no ".." element), so a config and its files
// travel as one directory and no config reaches outside its own.
func ParseConfig(r io.Reader, dir fs.FS) (Config, error) {
	var ff fedFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ff); err != nil {
		return Config{}, fmt.Errorf("federation: config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("federation: config: trailing data after the JSON value")
	}
	read := func(name string) ([]byte, error) {
		if !fs.ValidPath(name) {
			return nil, fmt.Errorf("path %q is not local to the config's directory", name)
		}
		return fs.ReadFile(dir, name)
	}
	scenario := func(name string) (fault.Scenario, error) {
		b, err := read(name)
		if err != nil {
			return fault.Scenario{}, err
		}
		sc, err := fault.ParseScenario(bytes.NewReader(b))
		if err != nil {
			return fault.Scenario{}, fmt.Errorf("%s: %w", name, err)
		}
		return sc, nil
	}
	cfg := Config{
		Seed:          ff.Seed,
		EpochBarriers: ff.EpochBarriers,
		HoursPerSec:   ff.HoursPerSec,
		Hysteresis:    ff.Hysteresis,
		Tiers:         ff.Tiers,
		Migration:     ff.Migration,
	}
	if ff.BatchMS > 0 {
		cfg.Batch = sim.FromMillis(ff.BatchMS)
	}
	if len(ff.Regions) == 0 {
		return Config{}, fmt.Errorf("federation: config: no regions")
	}
	if len(ff.Tiers) > 0 {
		if err := ValidateTiers(ff.Tiers); err != nil {
			return Config{}, fmt.Errorf("federation: config: %w", err)
		}
	}
	for i, fr := range ff.Regions {
		rc := RegionConfig{
			Name: fr.Name,
			Fleet: fleet.Config{
				Boards: fr.Boards, TDP: fr.TDP, QueueCap: fr.QueueCap,
				MaxSkew: fr.MaxSkew, RestartAfter: fr.RestartAfter,
				DrainDegradedAfter: fr.DrainDegraded,
			},
		}
		switch {
		case fr.PriceTrace != "":
			b, err := read(fr.PriceTrace)
			if err == nil {
				rc.Price, err = ParsePriceTrace(b)
			}
			if err != nil {
				return Config{}, fmt.Errorf("federation: region %d: %w", i, err)
			}
		case fr.Diurnal != nil:
			rc.Price = Diurnal(fr.Name, fr.Diurnal.Base, fr.Diurnal.Amp, fr.Diurnal.PeakHour, fr.Diurnal.Steps)
		default:
			return Config{}, fmt.Errorf("federation: region %d (%s): no price_trace or diurnal", i, fr.Name)
		}
		if len(fr.Faults) > 0 {
			rc.Fleet.Faults = map[int]fault.Scenario{}
			for id, fp := range fr.Faults {
				board, err := strconv.Atoi(id)
				if err != nil {
					return Config{}, fmt.Errorf("federation: region %d: bad board id %q", i, id)
				}
				if rc.Fleet.Faults[board], err = scenario(fp); err != nil {
					return Config{}, fmt.Errorf("federation: region %d: %w", i, err)
				}
			}
		}
		if fr.Outage != "" {
			var err error
			if rc.Outage, err = scenario(fr.Outage); err != nil {
				return Config{}, fmt.Errorf("federation: region %d: %w", i, err)
			}
		}
		cfg.Regions = append(cfg.Regions, rc)
	}
	return cfg, nil
}

// SynthConfig builds an R-region federation with phase-shifted diurnal
// price curves — the zero-file way to boot fedd (-regions N).
func SynthConfig(regions, boardsPer int, seed uint64) Config {
	cfg := Config{Seed: seed}
	for i := 0; i < regions; i++ {
		peak := 14.0 + 24.0*float64(i)/float64(regions) // staggered demand peaks
		for peak >= 24 {
			peak -= 24
		}
		cfg.Regions = append(cfg.Regions, RegionConfig{
			Name:  "r" + itoa(i),
			Fleet: fleet.Config{Boards: boardsPer},
			Price: Diurnal("synth-r"+itoa(i), 0.10, 0.06, peak, 24),
		})
	}
	return cfg
}
