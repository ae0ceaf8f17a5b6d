package hw

import "pricepower/internal/sim"

// Thermal model
//
// The paper's TDP constraint is thermal in origin ("the quality of the
// cooling solution determines the value of the TDP constraint"). This
// first-order RC model turns the power model's output into per-cluster die
// temperatures so experiments can check that holding W < Wtdp actually
// keeps silicon inside its envelope, and so thermal-aware extensions have a
// substrate to build on:
//
//	C · dT/dt = P − (T − T_amb)/R
//
// with per-cluster thermal resistance R (K/W) and capacitance C (J/K). The
// steady state is T = T_amb + R·P; the time constant is R·C.

// ThermalParams configures one cluster's RC pair.
type ThermalParams struct {
	// Rth is the junction-to-ambient thermal resistance in K/W.
	Rth float64
	// Cth is the lumped thermal capacitance in J/K.
	Cth float64
}

// DefaultThermalParams returns mobile-SoC-scale constants: with the TC2
// calibration (big cluster ≈6 W max, Rth 7 K/W) the big cluster tops out
// near 42 °C above ambient — about the envelope passive cooling sustains —
// and the R·C time constant is ≈10 s, the scale thermal governors react on.
func DefaultThermalParams() ThermalParams {
	return ThermalParams{Rth: 7.0, Cth: 1.4}
}

// ThermalModel tracks per-cluster die temperatures of a chip.
type ThermalModel struct {
	chip    *Chip
	params  []ThermalParams
	ambient float64
	temps   []float64
	peak    []float64
}

// NewThermalModel builds a model over the chip with one ThermalParams per
// cluster (nil uses DefaultThermalParams everywhere) starting in thermal
// equilibrium with the given ambient temperature (°C).
func NewThermalModel(chip *Chip, params []ThermalParams, ambient float64) *ThermalModel {
	m := &ThermalModel{
		chip:    chip,
		ambient: ambient,
		temps:   make([]float64, len(chip.Clusters)),
		peak:    make([]float64, len(chip.Clusters)),
	}
	m.params = make([]ThermalParams, len(chip.Clusters))
	for i := range m.params {
		if params != nil && i < len(params) {
			m.params[i] = params[i]
		} else {
			m.params[i] = DefaultThermalParams()
		}
	}
	for i := range m.temps {
		m.temps[i] = ambient
		m.peak[i] = ambient
	}
	return m
}

// Update advances every cluster's temperature by dt given each cluster's
// power draw over the step, in watts, indexed by cluster (explicit Euler;
// the platform's 1 ms tick is far below the ~10 s thermal time constant).
// The platform passes the samples it already took for its meters.
func (m *ThermalModel) Update(powers []float64, dt sim.Time) {
	sec := dt.Seconds()
	for i, p := range powers[:len(m.temps)] {
		pr := m.params[i]
		dT := (p - (m.temps[i]-m.ambient)/pr.Rth) / pr.Cth
		m.temps[i] += dT * sec
		if m.temps[i] > m.peak[i] {
			m.peak[i] = m.temps[i]
		}
	}
}

// Temp reports cluster i's current die temperature in °C.
func (m *ThermalModel) Temp(cluster int) float64 { return m.temps[cluster] }

// Peak reports cluster i's highest temperature seen so far.
func (m *ThermalModel) Peak(cluster int) float64 { return m.peak[cluster] }

// MaxTemp reports the hottest cluster's current temperature.
func (m *ThermalModel) MaxTemp() float64 {
	max := m.ambient
	for _, t := range m.temps {
		if t > max {
			max = t
		}
	}
	return max
}

// SteadyState reports the temperature cluster i would converge to at its
// current power draw.
func (m *ThermalModel) SteadyState(cluster int) float64 {
	return m.ambient + m.params[cluster].Rth*ClusterPower(m.chip.Clusters[cluster])
}
