// Command fleetd runs a fleet of simulated boards behind the price-routing
// dispatcher and serves the admission-controlled submission API.
//
// Usage:
//
//	fleetd [-boards N] [-seed S] [-tdp watts] [-batch ms] [-hysteresis frac]
//	       [-queue cap] [-skew K] [-drain-degraded N] [-faults board:file,...]
//	       [-restart-after N] [-max-restarts N] [-stall-barriers N] [-deadline dur]
//	       [-trace arrivals.json] [-tracing] [-http ADDR] [-pace ms] [-dur seconds]
//
// Without -http, fleetd plays the -trace arrivals for -dur virtual seconds
// and prints a summary (the batch-mode smoke path). With -http it serves
// POST /submit, GET /boards, GET /state and GET /metrics while a driver
// goroutine advances the fleet one batch every -pace milliseconds of real
// time, until SIGINT/SIGTERM; shutdown drains in-flight requests through
// the shared internal/httpd path. Virtual time holds at zero until the
// first task is submitted, so fault-scenario windows and deferred arrivals
// measure from first load rather than from process start.
//
// Board failure domains: -faults scenarios may include the board-level
// classes (board-crash, board-stall). A crash is survivable in batch mode —
// the supervisor orphans the board's work and, with -restart-after N > 0,
// resurrects it after the backoff and re-places the orphans; the run keeps
// stepping and the summary reports crash/restart counters. -deadline puts a
// wall-clock liveness bound on each barrier so a genuinely hung board fails
// the run fast with a dump of the unreplied boards instead of deadlocking.
//
// -tracing attaches deterministic causal tracing and latency histograms:
// with -http the mux additionally serves GET /trace, GET /trace?id= and
// GET /histograms; either mode prints the span ledger and the replay
// digest vector in the exit summary (batch-mode digests are reproducible
// run to run — the trace-smoke gate diffs them).
//
// Examples:
//
//	fleetd -boards 4 -trace examples/fleet/burst.json -dur 20
//	fleetd -boards 8 -tdp 4 -http 127.0.0.1:7070 -faults 2:examples/faults/sensor-dropout.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"pricepower/internal/exp"
	"pricepower/internal/fault"
	"pricepower/internal/fleet"
	"pricepower/internal/httpd"
	"pricepower/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	boards := flag.Int("boards", 4, "number of boards in the fleet")
	seed := flag.Uint64("seed", 1, "fleet seed (per-board streams derive from it)")
	tdp := flag.Float64("tdp", 0, "per-board TDP budget in W (0 = unconstrained)")
	batchMS := flag.Float64("batch", 100, "virtual milliseconds per batch barrier")
	hyst := flag.Float64("hysteresis", fleet.DefaultHysteresis, "dispatcher price-switch hysteresis fraction")
	queue := flag.Int("queue", fleet.DefaultQueueCap, "admission queue capacity")
	skew := flag.Int("skew", 0, "max barriers a board may run ahead of the slowest (0 = lockstep)")
	shards := flag.Int("shards", 1, "dispatcher shards; boards partition into S price indexes with work stealing (clamped to the board count)")
	drainDegraded := flag.Int("drain-degraded", 0, "auto-drain a board after this many consecutive degraded barriers (0 = off)")
	restartAfter := flag.Int("restart-after", 0, "restart a crashed board after this many barriers, backing off per repeat (0 = crashes quarantine permanently)")
	maxRestarts := flag.Int("max-restarts", 0, "cap supervised restarts per board; beyond it the board quarantines permanently (0 = unlimited)")
	stallBarriers := flag.Int("stall-barriers", fleet.DefaultStallBarriers, "quarantine a board after this many consecutively withheld barriers")
	deadline := flag.Duration("deadline", 0, "wall-clock liveness deadline per barrier; a hung run fails fast with the unreplied boards (0 = off)")
	faults := flag.String("faults", "", "per-board fault scenarios as board:file[,board:file...]")
	traceFile := flag.String("trace", "", "arrival trace JSON to submit at startup")
	tracing := flag.Bool("tracing", false, "attach causal tracing + latency histograms (/trace, /histograms)")
	httpAddr := flag.String("http", "", "serve the submission API on this address until interrupted")
	paceMS := flag.Float64("pace", 10, "real milliseconds per batch in -http mode (0 = flat out)")
	dur := flag.Float64("dur", 10, "virtual seconds to run in batch mode (ignored with -http)")
	flag.Parse()

	cfg := fleet.Config{
		Boards:             *boards,
		Seed:               *seed,
		TDP:                *tdp,
		Batch:              sim.FromMillis(*batchMS),
		Hysteresis:         *hyst,
		QueueCap:           *queue,
		MaxSkew:            *skew,
		Shards:             *shards,
		DrainDegradedAfter: *drainDegraded,
		RestartAfter:       *restartAfter,
		MaxRestarts:        *maxRestarts,
		StallBarriers:      *stallBarriers,
		Liveness:           *deadline,
		Trace:              *tracing,
		Check:              exp.CheckEnabled(),
	}
	var err error
	if cfg.Faults, err = parseFaults(*faults, *boards); err != nil {
		return err
	}

	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	defer f.Close()

	if *traceFile != "" {
		specs, err := fleet.LoadTrace(*traceFile)
		if err != nil {
			return err
		}
		fleet.SubmitTimed(f, specs)
		fmt.Printf("fleetd: trace %s: %d arrivals\n", *traceFile, len(specs))
	}

	if *httpAddr == "" {
		return runBatch(f, cfg, *dur)
	}
	return serve(f, *httpAddr, *paceMS)
}

// runBatch advances the fleet as fast as the host allows for dur virtual
// seconds and prints the summary — the smoke-testable path. Board
// crashes are survivable events here: the supervisor already orphaned
// the dead board's work, so a step error that is *only* crash reports is
// logged and the run keeps going. Anything else — invariant violation,
// liveness timeout — aborts.
func runBatch(f *fleet.Fleet, cfg fleet.Config, dur float64) error {
	batches := int(sim.FromSeconds(dur) / cfg.Batch)
	if batches < 1 {
		batches = 1
	}
	for i := 0; i < batches; i++ {
		if err := stepSupervised(f); err != nil {
			return err
		}
	}
	if err := stepFlush(f); err != nil { // collect the bounded-skew tail
		return err
	}
	printSummary(f)
	return nil
}

// stepSupervised runs one Step, absorbing crash-only errors (logged,
// survivable) and decorating a liveness timeout with the diagnostic dump
// of the boards that never replied.
func stepSupervised(f *fleet.Fleet) error {
	return superviseErr(f.Step())
}

func stepFlush(f *fleet.Fleet) error {
	return superviseErr(f.Flush())
}

func superviseErr(err error) error {
	if err == nil {
		return nil
	}
	if crashes, only := fleet.CrashErrors(err); only {
		for _, ce := range crashes {
			fmt.Printf("fleetd: %v (supervised; run continues)\n", ce)
		}
		return nil
	}
	var le *fleet.LivenessError
	if errors.As(err, &le) {
		fmt.Fprintf(os.Stderr, "fleetd: liveness deadline %v exceeded at barrier %d\n", le.Deadline, le.Barrier)
		for _, b := range le.Boards {
			fmt.Fprintf(os.Stderr, "  board %d: no step reply (hung)\n", b)
		}
	}
	return err
}

// serve runs the API server and a paced driver until SIGINT/SIGTERM,
// then drains both through the shared shutdown path.
func serve(f *fleet.Fleet, addr string, paceMS float64) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	endpoints := "/submit /boards /state /metrics"
	if f.Tracer() != nil {
		endpoints += " /trace /histograms"
	}
	fmt.Printf("fleetd: listening on http://%s (%s)\n", ln.Addr(), endpoints)

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
			// empty fleet would burn through fault-scenario windows (an
			// idle board reads 0 W, so a sensor dropout on it is accepted
			// as a good reading and becomes undetectable) and would shift
			// deferred arrivals relative to them.
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

	err = httpd.Serve(ctx, ln, fleet.NewMux(f), httpd.DefaultDrainTimeout)
	if derr := <-driverDone; derr != nil && err == nil {
		err = derr
	}
	if ferr := stepFlush(f); ferr != nil && err == nil {
		err = ferr
	}
	printSummary(f)
	return err
}

func printSummary(f *fleet.Fleet) {
	st := f.StateSnapshot()
	fmt.Printf("fleet: %d boards, %d batches collected (%d issued), t=%.1f s\n",
		len(st.Boards), st.Batch, st.Issued, st.Time.Seconds())
	fmt.Printf("  submitted %d  routed %d  live %d  completed %d  in-flight %d  queued %d  shed %d  drained %d  redrains %d\n",
		st.Counters.Submitted, st.Counters.Routed, st.Live(), st.Completed, st.InFlight, st.QueueLen, st.Counters.Shed,
		st.Counters.Drained, st.Counters.Redrained)
	if st.Counters.Crashes > 0 || st.Counters.Stalls > 0 {
		fmt.Printf("  failures: crashes %d  stalls %d  restarts %d  orphaned %d (held %d)  replaced %d\n",
			st.Counters.Crashes, st.Counters.Stalls, st.Counters.Restarts,
			st.Counters.Orphaned, st.Orphaned, st.Counters.Replaced)
	}
	for _, b := range st.Boards {
		status := b.State
		if b.Degraded {
			status += " degraded"
		}
		if b.Draining {
			status += " draining"
		}
		if b.Crashed {
			status += " crashed"
		}
		if b.Stalled {
			status += " stalled"
		}
		if b.Epoch > 0 {
			status += fmt.Sprintf(" epoch=%d", b.Epoch)
		}
		fmt.Printf("  board %d: %2d tasks  price %.5f  %5.2f W  %s\n",
			b.Board, b.Tasks, b.Price, b.PowerW, status)
	}
	if tr := f.Tracer(); tr != nil {
		c := tr.Counts()
		fmt.Printf("  trace: opened %d closed %d attributed %d open %d mismatched %d\n",
			c.Opened, c.Closed, c.Attributed, c.Open, c.Mismatched)
		ds := tr.Digests()
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = fmt.Sprintf("%016x", d)
		}
		fmt.Printf("  trace digests: %s\n", strings.Join(parts, " "))
	}
}

// parseFaults decodes -faults "board:file,board:file" into per-board
// scenarios.
func parseFaults(arg string, boards int) (map[int]fault.Scenario, error) {
	if arg == "" {
		return nil, nil
	}
	out := make(map[int]fault.Scenario)
	for _, part := range strings.Split(arg, ",") {
		id, path, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("-faults %q: want board:file", part)
		}
		board, err := strconv.Atoi(id)
		if err != nil || board < 0 || board >= boards {
			return nil, fmt.Errorf("-faults %q: board index outside [0,%d)", part, boards)
		}
		sc, err := fault.LoadScenario(path)
		if err != nil {
			return nil, err
		}
		out[board] = sc
	}
	return out, nil
}
