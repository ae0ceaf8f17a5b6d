package fleet

import (
	"testing"

	"pricepower/internal/sim"
)

// submitArrivals resolves arrival-trace entries through the workload
// registry and feeds them in, in trace order: due-now entries to the
// admission queue, later ones onto the schedule at their offset from the
// fleet's current time.
func submitArrivals(t testing.TB, f *Fleet, arrivals []Arrival) {
	t.Helper()
	base := f.Now()
	for _, a := range arrivals {
		spec, err := a.Spec()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < max(a.Count, 1); n++ {
			if a.AtMS == 0 {
				f.Submit(spec)
			} else {
				f.SubmitAt(base+sim.Time(a.AtMS)*sim.Millisecond, spec)
			}
		}
	}
}

// TestArrivalCountBounds pins the bound check at its edges.
func TestArrivalCountBounds(t *testing.T) {
	for _, c := range []struct {
		total, count int
		at           int64
		want         int
		ok           bool
	}{
		{0, 0, 0, 1, true},
		{0, -5, 0, 1, true},
		{0, MaxSubmitTasks, MaxAtMS, MaxSubmitTasks, true},
		{1, MaxSubmitTasks, 0, 0, false},
		{MaxSubmitTasks, 0, 0, 0, false},
		{MaxSubmitTasks - 1, 1, 0, 1, true},
		{0, 1, MaxAtMS + 1, 0, false},
		{0, 1, -1, 0, false},
		{0, int(^uint(0) >> 1), 0, 0, false},
	} {
		n, err := ArrivalCount(c.total, c.count, c.at)
		if (err == nil) != c.ok || n != c.want {
			t.Errorf("ArrivalCount(%d, %d, %d) = %d, %v; want %d, ok %v", c.total, c.count, c.at, n, err, c.want, c.ok)
		}
	}
}
