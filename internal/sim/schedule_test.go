package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestScheduleMatchesStableSort checks the heap against a stable-sort
// oracle: pushes and pops interleave, due times collide often, and every
// pop must return what sorting the not-yet-popped values stably by due
// time puts first.
func TestScheduleMatchesStableSort(t *testing.T) {
	type entry struct {
		at Time
		v  int
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var s Schedule[int]
		var left []entry // pushed, not yet popped, in push order
		pop := func() {
			sort.SliceStable(left, func(i, j int) bool { return left[i].at < left[j].at })
			if at, ok := s.Next(); !ok || at != left[0].at {
				t.Fatalf("trial %d: Next = %v, %v; want %v", trial, at, ok, left[0].at)
			}
			if got := s.Pop(); got != left[0].v {
				t.Fatalf("trial %d: popped %d, oracle %d", trial, got, left[0].v)
			}
			left = left[1:]
		}
		n := rng.Intn(80)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(12))
			if trial%3 == 0 {
				at = Time(n - i) // strictly reverse order
			}
			s.Push(at, i)
			left = append(left, entry{at, i})
			if rng.Intn(3) == 0 {
				pop()
			}
		}
		for len(left) > 0 {
			pop()
		}
		if _, ok := s.Next(); ok || s.Len() != 0 {
			t.Fatalf("trial %d: schedule not empty after draining", trial)
		}
	}
}
