// Command ppmsim runs one workload set under a chosen governor on the
// simulated TC2 platform and prints a run summary — the quickest way to
// poke at the system.
//
// Usage:
//
//	ppmsim [-set l1|...|h3] [-governor PPM|HPM|HL] [-tdp watts] [-dur seconds]
//	       [-check] [-trace run.csv] [-events run.jsonl] [-http ADDR]
//	       [-faults scenario.json]
//
// Example:
//
//	ppmsim -set m2 -governor PPM -tdp 4 -dur 60 -check
//	ppmsim -set h2 -governor PPM -tdp 4 -events run.jsonl
//	ppmsim -set h2 -governor PPM -tdp 4 -http 127.0.0.1:6060
//	ppmsim -set m1 -governor PPM -tdp 4 -faults examples/faults/sensor-dropout.json
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"pricepower/internal/exp"
	"pricepower/internal/fault"
	"pricepower/internal/httpd"
	"pricepower/internal/platform"
	"pricepower/internal/sim"
	"pricepower/internal/telemetry"
	"pricepower/internal/workload"
)

func main() {
	setName := flag.String("set", "m1", "workload set (Table 6: l1..l3, m1..m3, h1..h3)")
	governor := flag.String("governor", "PPM", "governor: PPM, HPM or HL")
	tdp := flag.Float64("tdp", 0, "TDP budget in W (0 = unconstrained)")
	dur := flag.Float64("dur", 60, "measured virtual seconds")
	traceFile := flag.String("trace", "", "write a full CSV run trace to this file")
	eventsFile := flag.String("events", "", "write the full telemetry event stream (all kinds) as JSONL to this file")
	httpAddr := flag.String("http", "", "serve /metrics, /events, /state and /debug/pprof on this address; the server stays up after the run until interrupted")
	checkRun := flag.Bool("check", false, "run under the runtime invariant checker; violations are listed and exit non-zero")
	faultsFile := flag.String("faults", "", "inject the JSON fault scenario (internal/fault) into the run")
	list := flag.Bool("list", false, "list workload sets and exit")
	flag.Parse()

	if *list {
		fmt.Println("Workload sets (Table 6):")
		for _, s := range workload.Sets {
			in, _ := s.Intensity(workload.TC2LittleCapacity)
			fmt.Printf("  %-3s %-7s intensity %+.3f:", s.Name, s.Class(), in)
			for _, m := range s.Members {
				fmt.Printf(" %s", m.TaskName())
			}
			fmt.Println()
		}
		return
	}

	set, ok := workload.SetByName(*setName)
	if !ok {
		fmt.Fprintf(os.Stderr, "ppmsim: unknown workload set %q (try -list)\n", *setName)
		os.Exit(1)
	}

	var inj *fault.Injector
	if *faultsFile != "" {
		sc, err := fault.LoadScenario(*faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppmsim: %v\n", err)
			os.Exit(1)
		}
		geo := platform.NewTC2().Chip
		if err := sc.Validate(len(geo.Clusters), len(geo.Cores)); err != nil {
			fmt.Fprintf(os.Stderr, "ppmsim: %s: %v\n", *faultsFile, err)
			os.Exit(1)
		}
		inj = fault.NewInjector(sc)
		fmt.Printf("faults: %s\n", inj)
	}

	// Telemetry wiring. The ring sink backs the live /events endpoint and
	// keeps only the default (low-volume) kinds; the JSONL file gets the
	// complete stream, so the emitter mask widens to AllKinds when both are
	// requested.
	var (
		em    *telemetry.Emitter
		ring  *telemetry.RingSink
		jsonl *telemetry.JSONLSink
	)
	if *httpAddr != "" || *eventsFile != "" {
		var sinks []telemetry.Sink
		if *httpAddr != "" {
			ring = telemetry.NewRing(4096)
		}
		if *eventsFile != "" {
			f, err := os.Create(*eventsFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ppmsim: %v\n", err)
				os.Exit(1)
			}
			jsonl = telemetry.NewJSONLCloser(f)
			sinks = append(sinks, jsonl)
			if ring != nil {
				sinks = append(sinks, telemetry.NewFilter(ring, telemetry.DefaultKinds))
			}
		} else if ring != nil {
			sinks = append(sinks, ring)
		}
		em = telemetry.NewEmitter(telemetry.NewRegistry(), sinks...)
		if *eventsFile != "" {
			em.SetKinds(telemetry.AllKinds)
		}
	}
	if jsonl != nil {
		// Surface a failed events file once, loudly: on stderr and — since
		// the rest of the stream still flows to the other sinks — as one
		// violation event in the live timeline. (The sink's sticky error
		// drops the re-entrant delivery of that event to itself.)
		sink, emitter := jsonl, em
		sink.SetOnError(func(err error) {
			fmt.Fprintf(os.Stderr, "ppmsim: events: %v\n", err)
			ev := telemetry.E(telemetry.KindViolation)
			ev.Name = "jsonl-sink"
			ev.Detail = err.Error()
			emitter.Emit(ev)
		})
	}
	var srv *httpd.Server
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppmsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: listening on http://%s (/metrics /events /state /debug/pprof)\n", ln.Addr())
		srv = httpd.New(telemetry.NewMux(em, ring))
		srv.Start(ln)
	}

	opts := exp.RunOptions{Telemetry: em, Check: *checkRun}
	if inj != nil {
		opts.Faults = inj
		opts.MaxOverRounds = faultMaxOverRounds
	}
	var trace *os.File
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppmsim: %v\n", err)
			os.Exit(1)
		}
		trace, opts.Trace = f, f
	}
	r, err := exp.RunSetOpts(*governor, set, *tdp, sim.FromSeconds(*dur), opts)
	if trace != nil {
		if cerr := trace.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppmsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s under %s", r.Set, r.Governor)
	if *tdp > 0 {
		fmt.Printf(" (TDP %.1f W)", *tdp)
	}
	fmt.Printf(", %.0f s measured after %.0f s warm-up\n",
		*dur, exp.Warmup.Seconds())
	fmt.Printf("  heart-rate miss (any task below range):  %5.1f %%\n", r.MissFrac*100)
	fmt.Printf("  average chip power:                      %5.2f W\n", r.AvgPower)
	fmt.Printf("  energy:                                  %5.1f J\n", r.Energy)
	fmt.Printf("  task movements (cross-cluster):          %d (%d)\n", r.Migrations, r.CrossMigrations)
	fmt.Printf("  V-F transitions (thermal cycling):       %d\n", r.Transitions)
	fmt.Printf("  peak die temperature (RC model):         %5.1f °C\n", r.PeakTempC)
	if inj != nil {
		fmt.Printf("  fault windows activated:                 %d\n", inj.Activations())
	}
	if *traceFile != "" {
		fmt.Printf("  trace written to %s\n", *traceFile)
	}
	if *checkRun {
		fmt.Println("  invariant checker: clean run, 0 violations")
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ppmsim: events: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  events written to %s\n", *eventsFile)
	}
	if srv != nil {
		// Shared shutdown path (internal/httpd): serve until SIGINT or
		// SIGTERM, then drain in-flight requests within the bounded
		// timeout instead of dying mid-response.
		fmt.Println("telemetry: run finished, serving until interrupted (Ctrl-C to exit)")
		ctx, stop := httpd.SignalContext()
		defer stop()
		if err := srv.WaitShutdown(ctx, httpd.DefaultDrainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "ppmsim: http: %v\n", err)
			os.Exit(1)
		}
	}
}

// faultMaxOverRounds relaxes the checker's tdp-settled streak tolerance
// under fault injection: a refused down-step or a stuck sensor can
// legitimately pin the smoothed power above the slack band for the length
// of the fault window.
const faultMaxOverRounds = 64
