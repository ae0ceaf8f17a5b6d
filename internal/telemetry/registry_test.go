package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`pricepower_migrations_total{class="us"}`, "Task migrations by paper cost class.").Add(3)
	reg.Counter(`pricepower_migrations_total{class="ms"}`, "Task migrations by paper cost class.").Add(1)
	reg.Counter("pricepower_market_rounds_total", "Market bid rounds executed.").Store(1894)
	reg.Gauge("pricepower_chip_power_watts", "Chip power at the last snapshot.").Set(4.25)
	reg.GaugeFunc("pricepower_fleet_queue_len", "Admission queue length.",
		func() float64 { return 2 })

	out := render(t, reg)

	for _, want := range []string{
		"# HELP pricepower_migrations_total Task migrations by paper cost class.\n",
		"# TYPE pricepower_migrations_total counter\n",
		`pricepower_migrations_total{class="ms"} 1` + "\n",
		`pricepower_migrations_total{class="us"} 3` + "\n",
		"pricepower_market_rounds_total 1894\n",
		"# TYPE pricepower_chip_power_watts gauge\n",
		"pricepower_chip_power_watts 4.25\n",
		"pricepower_fleet_queue_len 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE for a labeled family appear once, before its series.
	if strings.Count(out, "# TYPE pricepower_migrations_total") != 1 {
		t.Errorf("labeled family TYPE line repeated:\n%s", out)
	}
	// A family's samples stay together even where a longer name sorts
	// between them (`x_total` < `x{…}` bytewise).
	reg.Gauge("pricepower_x", "X.").Set(1)
	reg.Gauge(`pricepower_x{k="v"}`, "X.").Set(2)
	reg.Counter("pricepower_x_total", "X total.").Add(3)
	out = render(t, reg)
	if !strings.Contains(out, "pricepower_x 1\n"+`pricepower_x{k="v"} 2`+"\n# HELP pricepower_x_total") {
		t.Errorf("family pricepower_x split:\n%s", out)
	}
	// Deterministic: a second render is identical.
	if render(t, reg) != out {
		t.Error("exposition order is not deterministic")
	}
}

// render is a registry's /metrics document.
func render(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := WriteSeriesProm(&b, reg.Export()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x_total", "x") != reg.Counter("x_total", "x") {
		t.Error("re-registering a counter returned a new instrument")
	}
	if reg.Gauge("g", "g") != reg.Gauge("g", "g") {
		t.Error("re-registering a gauge returned a new instrument")
	}
	if reg.Histogram("h", "h", 1, 2, 4) != reg.Histogram("h", "h", 1, 2, 4) {
		t.Error("re-registering a histogram returned a new instrument")
	}
	reg.GaugeFunc("f", "f", func() float64 { return 1 })
	reg.GaugeFunc("f", "f", func() float64 { return 2 })
	if out := render(t, reg); !strings.Contains(out, "\nf 2\n") {
		t.Errorf("re-registering a gauge function did not replace it:\n%s", out)
	}
}

// TestRegistryKindClash: a name holds one instrument kind. Registering it
// as any other kind panics — a GaugeFunc must not silently hide a counter
// that Counter(name) keeps handing out.
func TestRegistryKindClash(t *testing.T) {
	register := map[string]func(*Registry){
		"counter":    func(r *Registry) { r.Counter("x", "") },
		"gauge":      func(r *Registry) { r.Gauge("x", "") },
		"gauge func": func(r *Registry) { r.GaugeFunc("x", "", func() float64 { return 0 }) },
		"histogram":  func(r *Registry) { r.Histogram("x", "", 1, 2, 4) },
	}
	for first, reg1 := range register {
		for second, reg2 := range register {
			if first == second {
				continue
			}
			t.Run(first+"/"+second, func(t *testing.T) {
				r := NewRegistry()
				reg1(r)
				defer func() {
					if recover() == nil {
						t.Errorf("registering a %s over a %s did not panic", second, first)
					}
				}()
				reg2(r)
			})
		}
	}
}

func TestCountersAndGaugesAreConcurrencySafe(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				g.Set(float64(i))
			}
		}()
	}
	render(t, reg) // scrape while writers run
	wg.Wait()
	if c.Value() != 4000 {
		t.Errorf("counter lost updates: %d", c.Value())
	}
	// Nil instruments are inert (detached components hold nils).
	var nc *Counter
	var ng *Gauge
	nc.Add(1)
	ng.Set(1)
	if nc.Value() != 0 || ng.Value() != 0 {
		t.Error("nil instruments hold values")
	}
}
