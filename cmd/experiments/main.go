// Command experiments regenerates the paper's evaluation tables and
// figures.
//
// Usage:
//
//	experiments [-dur seconds] [-iters n] [-csv dir] [table1|table2|...|fig8|ablation|all ...]
//
// With no arguments it runs everything. Comparative figures (4–6) run each
// of the nine workload sets under the three governors for -dur virtual
// seconds; Table 7 averages -iters LBT invocations per configuration.
// With -csv, figure series (7/8) are additionally written as CSV files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pricepower/internal/exp"
	"pricepower/internal/metrics"
	"pricepower/internal/sim"
)

func main() {
	dur := flag.Float64("dur", 120, "measured virtual seconds per comparative run")
	iters := flag.Int("iters", 10, "LBT invocations averaged per Table 7 row")
	csvDir := flag.String("csv", "", "directory to write figure CSV series into")
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	d := sim.FromSeconds(*dur)

	for _, name := range names {
		if err := run(name, d, *iters, *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
}

func run(name string, dur sim.Time, iters int, csvDir string) error {
	out := os.Stdout
	switch name {
	case "all":
		for _, n := range []string{"table1", "table2", "table3", "table4", "table5",
			"table6", "table7", "fig4", "fig6", "fig7", "fig8", "ablation"} {
			if err := run(n, dur, iters, csvDir); err != nil {
				return err
			}
		}
		return nil
	case "table1":
		exp.Table1().Render(out)
	case "table2":
		exp.Table2().Render(out)
	case "table3":
		exp.Table3().Render(out)
	case "table4":
		exp.Table4().Render(out)
	case "table5":
		exp.Table5().Render(out)
	case "table6":
		exp.Table6().Render(out)
	case "table7":
		exp.Table7(exp.Table7Configs, iters).Render(out)
	case "fig4", "fig5":
		c, err := exp.RunComparative(0, dur)
		if err != nil {
			return err
		}
		c.MissTable("Figure 4: time outside reference heart-rate range (no TDP constraint)").Render(out)
		c.PowerTable("Figure 5: average power consumption (no TDP constraint)").Render(out)
		c.EfficiencyTable("Figure 5 (companion): energy per delivered kilo-heartbeat").Render(out)
	case "fig6":
		c, err := exp.RunComparative(4.0, dur)
		if err != nil {
			return err
		}
		c.MissTable("Figure 6: time outside reference heart-rate range (4 W TDP constraint)").Render(out)
		c.PowerTable("Figure 6 (companion): average power under the 4 W cap").Render(out)
	case "fig7":
		tbl, a, b, err := exp.Fig7(dur)
		if err != nil {
			return err
		}
		tbl.Render(out)
		if csvDir != "" {
			if err := writeCSV(csvDir, "fig7a.csv",
				metrics.Column{Name: "bodytrack", Series: a.BodytrackSeries},
				metrics.Column{Name: "swaptions", Series: a.SwaptionsSeries}); err != nil {
				return err
			}
			if err := writeCSV(csvDir, "fig7b.csv",
				metrics.Column{Name: "bodytrack", Series: b.BodytrackSeries},
				metrics.Column{Name: "swaptions", Series: b.SwaptionsSeries}); err != nil {
				return err
			}
		}
	case "fig8":
		tbl, r, err := exp.Fig8(dur/3, dur)
		if err != nil {
			return err
		}
		tbl.Render(out)
		if csvDir != "" {
			if err := writeCSV(csvDir, "fig8.csv",
				metrics.Column{Name: "savings", Series: r.SavingsSeries},
				metrics.Column{Name: "swaptions", Series: r.SwaptionsSeries},
				metrics.Column{Name: "x264", Series: r.X264Series}); err != nil {
				return err
			}
		}
	case "ablation":
		tbl, err := exp.Ablation(dur / 2)
		if err != nil {
			return err
		}
		tbl.Render(out)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// writeCSV writes the columns to dir/file, joined on their sample times
// (metrics.WriteCSV).
func writeCSV(dir, file string, cols ...metrics.Column) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	if err := metrics.WriteCSV(f, cols); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
