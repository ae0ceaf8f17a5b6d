package core

import (
	"math"
	"testing"
)

// sensorMarket builds a 1-cluster market with a 20 W sensor envelope and
// the EWMA/last-good state seeded as if w had been trusted for a while.
func sensorMarket(seedW float64) *Market {
	ctl := NewLadderControl([]float64{100, 200}, []float64{1, 2})
	m := NewMarket(Config{InitialAllowance: 10, Wtdp: 8, MaxSensorPowerW: 20},
		[]ClusterControl{ctl}, []int{1})
	if seedW > 0 {
		m.wAvg, m.wSeeded = seedW, true
		m.lastGoodW, m.lastGoodSeeded = seedW, true
	}
	return m
}

func TestValidateSensorHealthyPassThrough(t *testing.T) {
	m := sensorMarket(3)
	for _, w := range []float64{0.5, 3, 7.9, 17} {
		if got := m.validateSensor(w, 2); got != w {
			t.Errorf("healthy reading %v mangled to %v", w, got)
		}
	}
	if m.Degraded() || m.SensorRejects() != 0 {
		t.Errorf("healthy stream left degraded=%v rejects=%d", m.Degraded(), m.SensorRejects())
	}
	// ×6 spikes were accepted above only when under wAvg·6+1; 17 < 3·6+1.
	if m.LastGoodPower() != 17 {
		t.Errorf("last good %v, want the latest trusted 17", m.LastGoodPower())
	}
}

func TestValidateSensorRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		w    float64
	}{
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"negative", -1},
		{"over-envelope", 21},
		{"dropout", 0},
		{"spike", 3*sensorJumpFactor + 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := sensorMarket(3)
			if got := m.validateSensor(c.w, 2); got != 3 {
				t.Errorf("rejected reading %v: substituted %v, want last good 3", c.w, got)
			}
			if !m.Degraded() {
				t.Error("rejection did not set the degraded flag")
			}
			if m.SensorRejects() != 1 {
				t.Errorf("rejects = %d, want 1", m.SensorRejects())
			}
		})
	}
}

// A 0 W reading with no tasks is legitimate (everything gated), and a
// downward collapse is never rejected — power-gating a big cluster can
// drop chip power many-fold within one round.
func TestValidateSensorAcceptsLegitimateLows(t *testing.T) {
	m := sensorMarket(6)
	if got := m.validateSensor(0, 0); got != 0 {
		t.Errorf("idle chip's 0 W rejected: got %v", got)
	}
	m2 := sensorMarket(6)
	if got := m2.validateSensor(0.4, 2); got != 0.4 {
		t.Errorf("downward collapse rejected: got %v", got)
	}
	if m2.Degraded() {
		t.Error("downward collapse set degraded")
	}
}

func TestValidateSensorStaleBoundThenClamp(t *testing.T) {
	m := sensorMarket(3)
	// The first sensorStaleRounds rejections hold the last good value, the
	// next clamps the raw reading into [0, MaxSensorPowerW].
	for i := 0; i < sensorStaleRounds; i++ {
		if got := m.validateSensor(50, 2); got != 3 {
			t.Fatalf("rejection %d: got %v, want held 3", i+1, got)
		}
	}
	if got := m.validateSensor(50, 2); got != 20 {
		t.Errorf("past stale bound: got %v, want clamp to envelope 20", got)
	}
	if got := m.validateSensor(math.NaN(), 2); got != 0 {
		t.Errorf("past stale bound, NaN: got %v, want clamp to 0", got)
	}
}

func TestValidateSensorDegradedHysteresis(t *testing.T) {
	m := sensorMarket(3)
	m.validateSensor(math.NaN(), 2)
	if !m.Degraded() {
		t.Fatal("not degraded after rejection")
	}
	for i := 1; i < degradedHealthyRounds; i++ {
		if m.validateSensor(3.1, 2); !m.Degraded() {
			t.Fatalf("%d healthy rounds cleared degraded, want %d", i, degradedHealthyRounds)
		}
	}
	if m.validateSensor(3.2, 2); m.Degraded() {
		t.Errorf("%d healthy rounds did not clear degraded", degradedHealthyRounds)
	}
	// A rejection mid-streak resets the hysteresis counter.
	m.validateSensor(math.NaN(), 2)
	for i := 1; i < degradedHealthyRounds; i++ {
		m.validateSensor(3.1, 2)
	}
	m.validateSensor(math.NaN(), 2)
	for i := 1; i < degradedHealthyRounds; i++ {
		m.validateSensor(3.1, 2)
	}
	if !m.Degraded() {
		t.Fatal("a rejection mid-streak did not reset the healthy streak")
	}
	if m.validateSensor(3.2, 2); m.Degraded() {
		t.Errorf("%d consecutive healthy rounds after reset did not clear degraded", degradedHealthyRounds)
	}
}

// While degraded, the effective TDP boundaries tighten by DegradedGuard;
// healthy they are exactly the configured ones.
func TestEffectiveBoundariesTighten(t *testing.T) {
	m := sensorMarket(3)
	if m.EffectiveWtdp() != m.cfg.Wtdp || m.EffectiveWth() != m.cfg.Wth {
		t.Fatalf("healthy effective boundaries (%v, %v) ≠ configured (%v, %v)",
			m.EffectiveWth(), m.EffectiveWtdp(), m.cfg.Wth, m.cfg.Wtdp)
	}
	m.validateSensor(math.NaN(), 2)
	if !m.Degraded() {
		t.Fatal("not degraded")
	}
	wantTdp := m.cfg.Wtdp * DegradedGuard
	if got := m.EffectiveWtdp(); got != wantTdp {
		t.Errorf("degraded EffectiveWtdp = %v, want %v", got, wantTdp)
	}
	if got := m.EffectiveWth(); got >= m.cfg.Wth {
		t.Errorf("degraded EffectiveWth = %v not tightened below %v", got, m.cfg.Wth)
	}
}
