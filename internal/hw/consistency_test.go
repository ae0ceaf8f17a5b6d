package hw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: the what-if query ClusterPowerAt agrees with the live power
// model ClusterPower whenever every core runs at the queried utilization —
// governors rely on this to price operating points they are not at.
func TestClusterPowerAtConsistency(t *testing.T) {
	chip := NewTC2()
	f := func(level uint8, utilRaw uint16) bool {
		util := float64(utilRaw%1001) / 1000
		for _, cl := range chip.Clusters {
			l := int(level) % cl.NumLevels()
			cl.SetLevel(l)
			for _, c := range cl.Cores {
				c.Utilization = util
			}
			want := ClusterPower(cl)
			got := ClusterPowerAt(cl, l, util)
			if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestClusterPowerAtClamps(t *testing.T) {
	cl := NewTC2().Clusters[0]
	if got := ClusterPowerAt(cl, -3, 0.5); got != ClusterPowerAt(cl, 0, 0.5) {
		t.Error("negative level not clamped")
	}
	if got := ClusterPowerAt(cl, 99, 0.5); got != ClusterPowerAt(cl, cl.NumLevels()-1, 0.5) {
		t.Error("over-range level not clamped")
	}
	if got := ClusterPowerAt(cl, 0, 7); got != ClusterPowerAt(cl, 0, 1) {
		t.Error("utilization not clamped high")
	}
	if got := ClusterPowerAt(cl, 0, -7); got != ClusterPowerAt(cl, 0, 0) {
		t.Error("utilization not clamped low")
	}
}
