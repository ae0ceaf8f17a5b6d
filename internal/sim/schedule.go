package sim

// Schedule is a min-heap of values due at virtual times. Values come out
// in (due time, push order): two values due at the same time leave in the
// order they were pushed. Push and Pop are O(log n). The zero value is an
// empty schedule.
type Schedule[T any] struct {
	q   []scheduled[T]
	seq uint64 // push counter: the tie-break between equal due times
}

type scheduled[T any] struct {
	at  Time
	seq uint64
	v   T
}

func (a *scheduled[T]) before(b *scheduled[T]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Len reports the number of scheduled values.
func (s *Schedule[T]) Len() int { return len(s.q) }

// Push schedules v at time at.
func (s *Schedule[T]) Push(at Time, v T) {
	s.q = append(s.q, scheduled[T]{at: at, seq: s.seq, v: v})
	s.seq++
	q := s.q
	for j := len(q) - 1; j > 0; {
		p := (j - 1) / 2
		if !q[j].before(&q[p]) {
			break
		}
		q[j], q[p] = q[p], q[j]
		j = p
	}
}

// Next reports the earliest due time; ok is false when the schedule is
// empty.
func (s *Schedule[T]) Next() (at Time, ok bool) {
	if len(s.q) == 0 {
		return 0, false
	}
	return s.q[0].at, true
}

// Pop removes and returns the earliest value. The schedule must not be
// empty.
func (s *Schedule[T]) Pop() T {
	q := s.q
	v := q[0].v
	n := len(q) - 1
	q[0] = q[n]
	q[n] = scheduled[T]{} // drop the reference the popped slot held
	q = q[:n]
	s.q = q
	for j := 0; ; {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[j]) {
			break
		}
		q[j], q[c] = q[c], q[j]
		j = c
	}
	return v
}
