package exp

import (
	"fmt"

	"pricepower/internal/ppm"
	"pricepower/internal/sim"
	"pricepower/internal/workload"
)

// Ablation sweeps the design knobs DESIGN.md calls out, one variant at a
// time against the PPM defaults, on a medium workload set (m2) under the
// 4 W cap — the regime where every knob is load-bearing:
//
//   - tolerance δ: reaction speed vs thermal cycling (§3.2.2);
//   - buffer zone Wth/Wtdp: utilization vs oscillation (§3.2.3);
//   - savings cap: transient outbidding power (§3.2.3);
//   - LBT on/off: the whole §3.3 module.
func Ablation(dur sim.Time) (*Table, error) {
	set, ok := workload.SetByName("m2")
	if !ok {
		return nil, fmt.Errorf("exp: workload set m2 missing")
	}
	const wtdp = 4.0
	t := &Table{
		Title: "Ablation: PPM design knobs on workload m2 under a 4 W TDP",
		Headers: []string{"Variant", "Miss [%]", "Avg power [W]",
			"V-F transitions", "Migrations"},
		Note: "each variant changes one knob from the defaults (δ=0.2, Wth=0.9·Wtdp, savings 5×, LBT on)",
	}

	variants := []struct {
		name string
		set  func(*ppm.Config)
	}{
		{"defaults", func(*ppm.Config) {}},
		{"δ=0.05 (twitchy)", func(c *ppm.Config) { c.Market.Tolerance = 0.05 }},
		{"δ=0.5 (sluggish)", func(c *ppm.Config) { c.Market.Tolerance = 0.5 }},
		{"buffer Wth=0.7·Wtdp", func(c *ppm.Config) { c.Market.Wth = 0.7 * wtdp }},
		{"buffer Wth=0.97·Wtdp", func(c *ppm.Config) { c.Market.Wth = 0.97 * wtdp }},
		{"savings off", func(c *ppm.Config) { c.Market.SavingsCap = 1e-9 }},
		{"LBT off", func(c *ppm.Config) { c.DisableLBT = true }},
	}
	for _, v := range variants {
		cfg := ppm.DefaultConfig(wtdp)
		v.set(&cfg)
		r, err := RunPPMVariant(cfg, set, dur)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", r.MissFrac*100),
			fmt.Sprintf("%.2f", r.AvgPower), r.Transitions, r.Migrations)
	}
	return t, nil
}
