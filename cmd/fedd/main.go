// Command fedd runs a geo-distributed federation of board fleets: R
// regions, each a full price-routed fleet with its own electricity price
// schedule, SLA-tiered revenue accounting, and the price-divergence
// migration controller moving queued load from expensive regions to cheap
// ones. A single fleet is a one-region federation (see examples/fleet/),
// so fedd is the one front door for every fleet run.
//
// Usage:
//
//	fedd [-config federation.json | -regions N [-boards B]] [-seed S]
//	     [-epochs E] [-trace arrivals.json] [-check] [-tracing]
//	     [-deadline dur] [-http ADDR] [-pace ms]
//
// A -config file (see examples/regions/federation.json) describes the
// regions — board counts, skew, shards, degraded auto-drain, price traces
// or synthetic diurnal curves, board fault scenarios, region outage
// windows — plus the SLA tiers and the migration controller's
// cost/hysteresis knobs. Without one, -regions N synthesizes N regions
// with phase-shifted diurnal price curves. -seed, when given, overrides
// the config's seed.
//
// Without -http, fedd plays the -trace arrivals for -epochs federation
// epochs and prints the economics summary, each region fleet's barrier,
// failure and trace lines, and the replay digest vector (bit-identical
// run to run for the same config, seed, and trace — the smoke gate diffs
// two runs). With -http it serves the federation API (POST /submit, GET
// /regions, /boards, /state, /metrics, /trace, and /histograms with
// -tracing) while a driver advances one epoch every -pace milliseconds
// until SIGINT/SIGTERM. Virtual time holds at zero until the first
// submission, so fault and outage windows measure from first load.
// Either way the regions' bounded-skew tails are flushed before the
// summary.
//
// Board crashes inside a region are supervised there (restart_after in
// the region config) and absorbed here; region outages freeze a whole
// region's fleet for the scheduled epochs while the router and migration
// controller steer around it. -deadline puts a wall-clock liveness bound
// on each barrier, so a genuinely hung board fails the run fast, naming
// the boards that never replied, instead of deadlocking. -tracing
// attaches deterministic causal tracing and latency histograms to every
// region fleet.
//
// Examples:
//
//	fedd -config examples/regions/federation.json -trace examples/regions/follow-the-sun.json -epochs 24
//	fedd -config examples/fleet/fleet.json -trace examples/fleet/burst.json -epochs 50 -tracing
//	fedd -regions 3 -boards 2 -http 127.0.0.1:7071
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
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
	seed := flag.Uint64("seed", 1, "federation seed (overrides the config's; region fleets derive their streams from it)")
	epochs := flag.Int("epochs", 12, "federation epochs to run in batch mode (ignored with -http)")
	traceFile := flag.String("trace", "", "arrival trace JSON to submit at startup (FedTrace shape)")
	check := flag.Bool("check", exp.CheckEnabled(), "assert cross-region conservation every epoch")
	tracing := flag.Bool("tracing", false, "attach causal tracing + latency histograms to every region fleet")
	deadline := flag.Duration("deadline", 0, "wall-clock liveness deadline per barrier; a hung run fails fast naming the unreplied boards (0 = off)")
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
	seedSet := false
	flag.Visit(func(fl *flag.Flag) { seedSet = seedSet || fl.Name == "seed" })
	if seedSet || cfg.Seed == 0 {
		cfg.Seed = *seed
	}
	cfg.Check = *check
	for i := range cfg.Regions {
		cfg.Regions[i].Fleet.Trace = *tracing
		cfg.Regions[i].Fleet.Liveness = *deadline
	}

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
	return serve(f, *httpAddr, *paceMS, *tracing)
}

// runBatch steps the federation for a fixed number of epochs, absorbing
// supervised board crashes, flushes the regions' bounded-skew tails,
// then prints the summary.
func runBatch(f *federation.Federation, epochs int) error {
	for i := 0; i < epochs; i++ {
		if err := supervise(os.Stdout, f.Step()); err != nil {
			return err
		}
	}
	if err := supervise(os.Stdout, f.Flush()); err != nil {
		return err
	}
	printSummary(f)
	return nil
}

// supervise filters a Step or Flush error: board crashes are survivable
// (each region's fleet supervises its restarts) and are logged to w;
// a liveness timeout is returned after naming the boards that never
// replied; anything else is returned as is.
func supervise(w io.Writer, err error) error {
	if err == nil {
		return nil
	}
	if crashes, only := fleet.CrashErrors(err); only {
		for _, ce := range crashes {
			fmt.Fprintf(w, "fedd: %v (supervised; run continues)\n", ce)
		}
		return nil
	}
	var le *fleet.LivenessError
	if errors.As(err, &le) {
		fmt.Fprintf(w, "fedd: liveness deadline %v exceeded at barrier %d\n", le.Deadline, le.Barrier)
		for _, b := range le.Boards {
			fmt.Fprintf(w, "  board %d: no step reply (hung)\n", b)
		}
	}
	return err
}

// serve runs the API server and a paced epoch driver until
// SIGINT/SIGTERM, then drains through the shared shutdown path and
// flushes the regions before the summary.
func serve(f *federation.Federation, addr string, paceMS float64, tracing bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	endpoints := "/submit /regions /boards /state /metrics /trace"
	if tracing {
		endpoints += " /histograms"
	}
	fmt.Printf("fedd: listening on http://%s (%s)\n", ln.Addr(), endpoints)

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
			// Hold virtual time until the first submission: stepping an
			// empty federation would burn through fault, outage and price
			// windows before any load exists to feel them (an idle board
			// reads 0 W, so a sensor dropout on it is undetectable).
			if idle {
				if f.StateSnapshot().Counters.Submitted == 0 {
					continue
				}
				idle = false
			}
			if err := supervise(os.Stdout, f.Step()); err != nil {
				driverDone <- err
				return
			}
		}
	}()

	err = httpd.Serve(ctx, ln, federation.NewMux(f), httpd.DefaultDrainTimeout)
	if derr := <-driverDone; derr != nil && err == nil {
		err = derr
	}
	if ferr := supervise(os.Stdout, f.Flush()); ferr != nil && err == nil {
		err = ferr
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
	regions := f.Regions()
	for i, r := range st.Regions {
		status := "up"
		if r.Down {
			status = "DOWN"
		}
		fmt.Printf("  region %s: %s  elec $%.4f/kWh  eff %.6f  served %.3f  rev $%.4f  cost $%.4f  viol %d  queued %d  live %d  completed %d  shed %d\n",
			r.Name, status, r.ElecPrice, r.EffPrice, r.Served,
			r.RevenueUSD, r.CostUSD, r.Violations, r.QueueLen, r.Live, r.Completed, r.Counters.Shed)
		printFleet(regions[i].Fleet())
	}
	fmt.Printf("  digests: %s\n", strings.Join(st.Digests, " "))
}

// printFleet prints one region fleet's barrier pipeline, failure
// counters (when any failure happened) and, with tracing, its span
// ledger and trace digest vector (index 0 = fleet, i+1 = board i).
func printFleet(fl *fleet.Fleet) {
	st := fl.StateSnapshot()
	c := st.Counters
	fmt.Printf("    fleet: %d boards  %d batches collected (%d issued)  in-flight %d  drained %d  redrains %d\n",
		len(st.Boards), st.Batch, st.Issued, st.InFlight, c.Drained, c.Redrained)
	if c.Crashes > 0 || c.Stalls > 0 {
		fmt.Printf("    failures: crashes %d  stalls %d  restarts %d  orphaned %d (held %d)  replaced %d\n",
			c.Crashes, c.Stalls, c.Restarts, c.Orphaned, st.Orphaned, c.Replaced)
	}
	if tr := fl.Tracer(); tr != nil {
		n := tr.Counts()
		fmt.Printf("    trace: opened %d closed %d attributed %d open %d mismatched %d\n",
			n.Opened, n.Closed, n.Attributed, n.Open, n.Mismatched)
		ds := make([]string, 0, tr.Boards()+1)
		for _, d := range tr.Digests() {
			ds = append(ds, fmt.Sprintf("%016x", d))
		}
		fmt.Printf("    trace digests: %s\n", strings.Join(ds, " "))
	}
}
