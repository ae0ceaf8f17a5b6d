package check_test

import (
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/telemetry/trace"
)

type fakeLedger struct{ o, c, a, op, mm uint64 }

func (f fakeLedger) SpanCounts() (uint64, uint64, uint64, uint64, uint64) {
	return f.o, f.c, f.a, f.op, f.mm
}

func TestCheckSpanConservation(t *testing.T) {
	cases := []struct {
		name string
		l    fakeLedger
		ok   bool
	}{
		{"balanced closed", fakeLedger{o: 5, c: 5}, true},
		{"balanced with attribution", fakeLedger{o: 5, c: 2, a: 2, op: 1}, true},
		{"empty", fakeLedger{}, true},
		{"leak", fakeLedger{o: 5, c: 4}, false},
		{"mismatch", fakeLedger{o: 2, c: 2, mm: 1}, false},
		{"overclose", fakeLedger{o: 2, c: 3}, false},
	}
	for _, tc := range cases {
		err := check.CheckSpanConservation(tc.l)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// The real tracer satisfies the structural interface and balances for a
// simple open/close + shed history.
func TestSpanConservationWithTracer(t *testing.T) {
	tr := trace.NewTracer(1)
	id := trace.DeriveID(1, 0)
	tr.Fleet().Open(trace.Span{Trace: id, Stage: trace.StageQueue, Board: -1})
	tr.Fleet().Close(id, trace.StageQueue, 100, "home")
	tr.Board(0).AddAttributed(trace.Span{Trace: id, Stage: trace.StageBoard, Class: "drain"})
	var l check.SpanLedger = tr
	if err := check.CheckSpanConservation(l); err != nil {
		t.Fatal(err)
	}
}
