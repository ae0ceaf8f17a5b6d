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

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

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
	// Deterministic: a second render is identical.
	var b2 strings.Builder
	reg.WriteProm(&b2)
	if b2.String() != out {
		t.Error("exposition order is not deterministic")
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x")
	b := reg.Counter("x_total", "x")
	if a != b {
		t.Error("re-registering a counter returned a new instrument")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge over a counter name did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
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
	var b strings.Builder
	reg.WriteProm(&b) // scrape while writers run
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
