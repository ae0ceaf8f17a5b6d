package fault

import (
	"testing"

	"pricepower/internal/sim"
)

func TestRegionOutageWindows(t *testing.T) {
	sc := Scenario{
		Seed: 42,
		Faults: []Fault{
			{Type: RegionOutage, Start: 4, Rounds: 3},
		},
	}
	if !sc.HasRegionFaults() {
		t.Fatal("HasRegionFaults = false for an outage schedule")
	}
	for epoch := 0; epoch < 12; epoch++ {
		want := epoch >= 4 && epoch < 7
		if got := sc.OutageAt(0, epoch); got != want {
			t.Errorf("OutageAt(0, %d) = %v, want %v", epoch, got, want)
		}
	}
}

func TestRegionOutageMagnitudeGate(t *testing.T) {
	sc := Scenario{
		Seed:   7,
		Faults: []Fault{{Type: RegionOutage, Start: 0, Rounds: 10000, Magnitude: 0.25}},
	}
	fired := 0
	for epoch := 0; epoch < 10000; epoch++ {
		if sc.OutageAt(1, epoch) {
			fired++
		}
	}
	// ~25% of 10000 epochs, with wide slack: the gate must act like a
	// probability, not a constant.
	if fired < 1500 || fired > 3500 {
		t.Fatalf("magnitude 0.25 fired %d/10000 epochs", fired)
	}
	// Different regions see decorrelated schedules under the same seed.
	same := 0
	for epoch := 0; epoch < 1000; epoch++ {
		if sc.OutageAt(1, epoch) == sc.OutageAt(2, epoch) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("regions 1 and 2 fired identically across 1000 epochs")
	}
}

func TestRegionFaultValidateAndInjectorSkip(t *testing.T) {
	sc := Scenario{Faults: []Fault{
		{Type: RegionOutage, Start: 5, Rounds: 2},
	}}
	// Region faults validate against any geometry: cluster/core are ignored.
	if err := sc.Validate(2, 5); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := Scenario{Faults: []Fault{{Type: RegionOutage, Start: 1, Rounds: 0}}}
	if err := bad.Validate(2, 5); err == nil {
		t.Fatal("Validate accepted a zero-length window")
	}
	// The platform injector never opens a window for a region fault.
	in := NewInjector(sc)
	for now := 0; now < 1000; now++ {
		in.BeginTick(nil, sc.Period()*sim.Time(now))
	}
	if in.Activations() != 0 || in.ActiveCount() != 0 {
		t.Fatalf("injector activated region faults: activations=%d active=%d",
			in.Activations(), in.ActiveCount())
	}
}

func TestIsRegionFault(t *testing.T) {
	for _, ty := range RegionTypes {
		if !IsRegionFault(ty) {
			t.Errorf("IsRegionFault(%s) = false", ty)
		}
	}
	for _, ty := range append(append([]Type(nil), Types...), BoardTypes...) {
		if IsRegionFault(ty) {
			t.Errorf("IsRegionFault(%s) = true for a non-region fault", ty)
		}
	}
}

func TestHasPlatformFaults(t *testing.T) {
	for _, c := range []struct {
		types []Type
		want  bool
	}{
		{nil, false},
		{[]Type{BoardCrash, BoardStall, RegionOutage}, false},
		{[]Type{BoardCrash, PowerDropout}, true},
		{[]Type{CoreUnplug}, true},
	} {
		var sc Scenario
		for _, ty := range c.types {
			sc.Faults = append(sc.Faults, Fault{Type: ty})
		}
		if got := sc.HasPlatformFaults(); got != c.want {
			t.Errorf("%v: HasPlatformFaults = %v, want %v", c.types, got, c.want)
		}
	}
}
