package hw

import (
	"math"
	"testing"

	"pricepower/internal/sim"
)

func thermalRig() (*Chip, *ThermalModel) {
	chip := NewTC2()
	m := NewThermalModel(chip, nil, 25)
	return chip, m
}

func TestThermalStartsAtAmbient(t *testing.T) {
	_, m := thermalRig()
	for i := 0; i < 2; i++ {
		if m.Temp(i) != 25 {
			t.Errorf("cluster %d starts at %v, want 25", i, m.Temp(i))
		}
	}
	if m.MaxTemp() != 25 {
		t.Errorf("MaxTemp = %v", m.MaxTemp())
	}
}

func TestThermalConvergesToSteadyState(t *testing.T) {
	chip, m := thermalRig()
	big := chip.Clusters[0]
	big.SetLevel(big.NumLevels() - 1)
	for _, c := range big.Cores {
		c.Utilization = 1
	}
	// Run well past the R·C time constant (~10 s).
	advance(m, chip, 100_000)
	want := m.SteadyState(0) // 25 + 7 K/W × ~6 W ≈ 67 °C
	if math.Abs(m.Temp(0)-want) > 0.5 {
		t.Errorf("big cluster temp = %.1f, want ≈%.1f", m.Temp(0), want)
	}
	if want < 60 || want > 75 {
		t.Errorf("steady state %.1f outside the plausible mobile envelope", want)
	}
	// The idle LITTLE cluster stays much cooler.
	if m.Temp(1) >= m.Temp(0)-20 {
		t.Errorf("LITTLE %.1f not well below big %.1f", m.Temp(1), m.Temp(0))
	}
}

func TestThermalTimeConstant(t *testing.T) {
	chip, m := thermalRig()
	big := chip.Clusters[0]
	big.SetLevel(big.NumLevels() - 1)
	for _, c := range big.Cores {
		c.Utilization = 1
	}
	// After exactly one time constant (R·C ≈ 9.8 s) the step response
	// covers 1−1/e ≈ 63 % of the way to steady state.
	tau := DefaultThermalParams().Rth * DefaultThermalParams().Cth
	steps := int(tau * 1000)
	advance(m, chip, steps)
	frac := (m.Temp(0) - 25) / (m.SteadyState(0) - 25)
	if math.Abs(frac-0.632) > 0.02 {
		t.Errorf("step response after τ = %.3f of final, want ≈0.632", frac)
	}
}

func TestThermalCoolsAfterLoadDrops(t *testing.T) {
	chip, m := thermalRig()
	big := chip.Clusters[0]
	big.SetLevel(big.NumLevels() - 1)
	for _, c := range big.Cores {
		c.Utilization = 1
	}
	advance(m, chip, 30_000)
	hot := m.Temp(0)
	big.PowerOff()
	advance(m, chip, 60_000)
	if m.Temp(0) >= hot-20 {
		t.Errorf("cluster did not cool: %.1f → %.1f", hot, m.Temp(0))
	}
	if m.Peak(0) < hot {
		t.Errorf("peak %.1f lost the hot excursion %.1f", m.Peak(0), hot)
	}
}

func TestThermalCustomParams(t *testing.T) {
	chip := NewTC2()
	params := []ThermalParams{{Rth: 1, Cth: 1}, {Rth: 20, Cth: 1}}
	m := NewThermalModel(chip, params, 30)
	for _, cl := range chip.Clusters {
		for _, c := range cl.Cores {
			c.Utilization = 1
		}
	}
	advance(m, chip, 200_000)
	// Cluster 1's high Rth makes it hotter despite drawing less power.
	if m.Temp(1) <= m.Temp(0) {
		t.Errorf("badly-cooled LITTLE %.1f not above well-cooled big %.1f",
			m.Temp(1), m.Temp(0))
	}
}

// advance steps the model n times by 1 ms on the chip's live cluster
// powers, sampled each step as the platform tick samples them.
func advance(m *ThermalModel, chip *Chip, n int) {
	powers := make([]float64, len(chip.Clusters))
	for i := 0; i < n; i++ {
		for j, cl := range chip.Clusters {
			powers[j] = ClusterPower(cl)
		}
		m.Update(powers, sim.Millisecond)
	}
}

// TestThermalUpdateNMatchesUpdate: n Euler steps taken in one UpdateN call
// leave every temperature and peak bit-identical to n Update calls — from a
// cold start, across power steps up and down, and while cooling at the end
// (where the peak stays above the temperature).
func TestThermalUpdateNMatchesUpdate(t *testing.T) {
	chip := NewTC2()
	params := []ThermalParams{{Rth: 7, Cth: 1.4}, {Rth: 11, Cth: 0.3}}
	one := NewThermalModel(chip, params, 25)
	many := NewThermalModel(chip, params, 25)
	for _, leg := range []struct {
		powers []float64
		dt     sim.Time
		n      int
	}{
		{[]float64{3.7, 0.41}, sim.Millisecond, 1},
		{[]float64{3.7, 0.41}, sim.Millisecond, 31},
		{[]float64{6.2, 1.3}, 250 * sim.Microsecond, 977},
		{[]float64{2.5, 0.9}, sim.Millisecond, 0},
		{[]float64{2.5, 0.9}, sim.Millisecond, 12345},
		{[]float64{0.05, 0.02}, 2 * sim.Millisecond, 4000},
	} {
		for k := 0; k < leg.n; k++ {
			one.Update(leg.powers, leg.dt)
		}
		many.UpdateN(leg.powers, leg.dt, leg.n)
		for i := range chip.Clusters {
			if math.Float64bits(one.Temp(i)) != math.Float64bits(many.Temp(i)) ||
				math.Float64bits(one.Peak(i)) != math.Float64bits(many.Peak(i)) {
				t.Fatalf("after %d steps at %v: cluster %d Update %v (peak %v), UpdateN %v (peak %v)",
					leg.n, leg.powers, i, one.Temp(i), one.Peak(i), many.Temp(i), many.Peak(i))
			}
		}
	}
	if many.Peak(0) <= many.Temp(0) {
		t.Errorf("the cooling leg left peak %v at or below temperature %v", many.Peak(0), many.Temp(0))
	}
}
