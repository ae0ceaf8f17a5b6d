// Command fedd runs a geo-distributed federation of board fleets: R
// regions, each a full price-routed fleet with its own electricity price
// schedule, SLA-tiered revenue accounting, and the price-divergence
// migration controller moving queued load from expensive regions to cheap
// ones.
//
// Usage:
//
//	fedd [-config federation.json | -regions N [-boards B]] [-seed S]
//	     [-epochs E] [-trace arrivals.json] [-check]
//	     [-http ADDR] [-pace ms]
//
// A -config file (see examples/regions/federation.json) describes the
// regions — board counts, price traces or synthetic diurnal curves, board
// fault scenarios, region outage windows — plus the SLA tiers and the
// migration controller's cost/hysteresis knobs. Without one, -regions N
// synthesizes N regions with phase-shifted diurnal price curves.
//
// Without -http, fedd plays the -trace arrivals for -epochs federation
// epochs and prints the economics summary and the replay digest vector
// (bit-identical run to run for the same config, seed, and trace — the
// federation-smoke gate diffs two runs). With -http it serves POST
// /submit, GET /regions, GET /state, GET /metrics and GET /trace while a
// driver advances one epoch every -pace milliseconds until
// SIGINT/SIGTERM.
//
// Board crashes inside a region are supervised there (restart_after in
// the region config) and absorbed here, like fleetd; region outages
// freeze a whole region's fleet for the scheduled epochs while the
// router and migration controller steer around it.
//
// Examples:
//
//	fedd -config examples/regions/federation.json -trace examples/regions/follow-the-sun.json -epochs 24
//	fedd -regions 3 -boards 2 -http 127.0.0.1:7071
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"pricepower/internal/exp"
	"pricepower/internal/federation"
	"pricepower/internal/fleet"
	"pricepower/internal/httpd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fedd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	configFile := flag.String("config", "", "federation config JSON (regions, prices, tiers, migration)")
	regions := flag.Int("regions", 3, "synthesize this many diurnal regions when -config is empty")
	boards := flag.Int("boards", 2, "boards per synthesized region")
	seed := flag.Uint64("seed", 1, "federation seed (region fleets derive their streams from it)")
	epochs := flag.Int("epochs", 12, "federation epochs to run in batch mode (ignored with -http)")
	traceFile := flag.String("trace", "", "arrival trace JSON to submit at startup (FedTrace shape)")
	check := flag.Bool("check", exp.CheckEnabled(), "assert cross-region conservation every epoch")
	httpAddr := flag.String("http", "", "serve the federation API on this address until interrupted")
	paceMS := flag.Float64("pace", 50, "real milliseconds per epoch in -http mode (0 = flat out)")
	flag.Parse()

	var cfg federation.Config
	var err error
	if *configFile != "" {
		if cfg, err = federation.LoadConfig(*configFile); err != nil {
			return err
		}
	} else {
		cfg = federation.SynthConfig(*regions, *boards, *seed)
	}
	if *seed != 1 || cfg.Seed == 0 {
		cfg.Seed = *seed
	}
	cfg.Check = *check

	f, err := federation.New(cfg)
	if err != nil {
		return err
	}
	defer f.Close()

	if *traceFile != "" {
		tr, err := federation.LoadFedTrace(*traceFile)
		if err != nil {
			return err
		}
		res, err := f.SubmitTrace(tr)
		if err != nil {
			return err
		}
		fmt.Printf("fedd: trace %s: routed %d pinned %d scheduled %d shed %d\n",
			*traceFile, res.Routed, res.Pinned, res.Scheduled, res.Shed)
	}

	if *httpAddr == "" {
		return runBatch(f, *epochs)
	}
	return serve(f, *httpAddr, *paceMS)
}

// runBatch steps the federation for a fixed number of epochs, absorbing
// supervised board crashes, then prints the economics summary and the
// replay digest vector.
func runBatch(f *federation.Federation, epochs int) error {
	for i := 0; i < epochs; i++ {
		if err := stepSupervised(f); err != nil {
			return err
		}
	}
	printSummary(f)
	return nil
}

// stepSupervised runs one epoch; board-crash errors are survivable (each
// region's fleet supervises restarts), anything else aborts.
func stepSupervised(f *federation.Federation) error {
	err := f.Step()
	if err == nil {
		return nil
	}
	if crashes, only := fleet.CrashErrors(err); only {
		for _, ce := range crashes {
			fmt.Printf("fedd: %v (supervised; run continues)\n", ce)
		}
		return nil
	}
	return err
}

// serve runs the API server and a paced epoch driver until
// SIGINT/SIGTERM, then drains through the shared shutdown path.
func serve(f *federation.Federation, addr string, paceMS float64) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("fedd: listening on http://%s (/submit /regions /state /metrics /trace)\n", ln.Addr())

	ctx, stop := httpd.SignalContext()
	defer stop()

	driverDone := make(chan error, 1)
	go func() {
		idle := true
		pace := time.Duration(paceMS * float64(time.Millisecond))
		var tick <-chan time.Time
		if pace > 0 {
			t := time.NewTicker(pace)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-ctx.Done():
				driverDone <- nil
				return
			default:
			}
			if tick != nil {
				select {
				case <-ctx.Done():
					driverDone <- nil
					return
				case <-tick:
				}
			}
			// Hold virtual time until the first submission, like fleetd:
			// stepping an empty federation would burn through outage and
			// price windows before any load exists to feel them.
			if idle {
				if f.StateSnapshot().Counters.Submitted == 0 {
					continue
				}
				idle = false
			}
			if err := stepSupervised(f); err != nil {
				driverDone <- err
				return
			}
		}
	}()

	err = httpd.Serve(ctx, ln, federation.NewMux(f), httpd.DefaultDrainTimeout)
	if derr := <-driverDone; derr != nil && err == nil {
		err = derr
	}
	printSummary(f)
	return err
}

func printSummary(f *federation.Federation) {
	st := f.StateSnapshot()
	fmt.Printf("federation: %d regions, epoch %d, t=%.1f s\n",
		len(st.Regions), st.Epoch, st.Time.Seconds())
	fmt.Printf("  submitted %d  migrations %d (%d tasks, %d delivered)  in-transit %d  board-crashes %d\n",
		st.Counters.Submitted, st.Counters.Migrations, st.Counters.MigratedTasks,
		st.Counters.Delivered, st.InTransit, st.Counters.BoardCrashes)
	for _, r := range st.Regions {
		status := "up"
		if r.Down {
			status = "DOWN"
		}
		fmt.Printf("  region %s: %s  elec $%.4f/kWh  eff %.6f  served %.3f  rev $%.4f  cost $%.4f  viol %d  queued %d  live %d  completed %d  shed %d\n",
			r.Name, status, r.ElecPrice, r.EffPrice, r.Served,
			r.RevenueUSD, r.CostUSD, r.Violations, r.QueueLen, r.Live, r.Completed, r.Counters.Shed)
	}
	fmt.Printf("  digests: %s\n", joinDigests(st.Digests))
}

func joinDigests(ds []string) string {
	out := ""
	for i, d := range ds {
		if i > 0 {
			out += " "
		}
		out += d
	}
	return out
}
