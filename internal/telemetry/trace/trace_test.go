package trace

import (
	"encoding/json"
	"testing"

	"pricepower/internal/check"
	"pricepower/internal/sim"
)

func TestDeriveIDDeterministic(t *testing.T) {
	a := DeriveID(0xfee1de7e, 7)
	b := DeriveID(0xfee1de7e, 7)
	if a != b {
		t.Fatalf("DeriveID not deterministic: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("DeriveID produced the reserved zero ID")
	}
	if DeriveID(0xfee1de7e, 8) == a {
		t.Fatal("adjacent positions collided")
	}
	got, err := ParseID(a.String())
	if err != nil || got != a {
		t.Fatalf("ParseID(%q) = %v, %v", a.String(), got, err)
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
}

func TestBufferLedgerAndDigest(t *testing.T) {
	mk := func() *Buffer {
		b := NewBuffer()
		id := DeriveID(1, 0)
		b.Open(Span{Trace: id, Stage: StageQueue, Board: -1, Start: 0})
		b.Close(id, StageQueue, 100, "home")
		b.Open(Span{Trace: id, Stage: StageBoard, Board: 2, Start: 100})
		b.CloseAttributed(id, StageBoard, 300, "drain")
		b.AddAttributed(Span{Trace: DeriveID(1, 1), Stage: StageQueue, Board: -1, Start: 50, End: 50, Class: "shed"})
		b.Add(Span{Stage: StageBarrier, Board: -1, Start: 0, End: 100, Barrier: 1, Lag: 2})
		b.Mark(Point{Kind: "dvfs", Board: 2, Time: 150, Value: 800})
		return b
	}
	b := mk()
	c := b.Counts()
	if c.Opened != 4 || c.Closed != 2 || c.Attributed != 2 || c.Open != 0 || c.Mismatched != 0 {
		t.Fatalf("ledger = %+v", c)
	}
	if got := c.Opened - c.Closed - c.Attributed - c.Open; got != 0 {
		t.Fatalf("conservation violated by %d", got)
	}
	if b.Digest() != mk().Digest() {
		t.Fatal("identical histories produced different digests")
	}

	// A different class changes the digest.
	b2 := NewBuffer()
	id := DeriveID(1, 0)
	b2.Open(Span{Trace: id, Stage: StageQueue, Board: -1, Start: 0})
	b2.Close(id, StageQueue, 100, "requeue")
	b3 := NewBuffer()
	b3.Open(Span{Trace: id, Stage: StageQueue, Board: -1, Start: 0})
	b3.Close(id, StageQueue, 100, "home")
	if b2.Digest() == b3.Digest() {
		t.Fatal("digest insensitive to span class")
	}
}

func TestBufferMismatchAccounting(t *testing.T) {
	b := NewBuffer()
	id := DeriveID(2, 0)
	b.Close(id, StageQueue, 10, "") // close without open
	b.Open(Span{Trace: id, Stage: StageQueue})
	b.Open(Span{Trace: id, Stage: StageQueue}) // duplicate open
	c := b.Counts()
	if c.Mismatched != 2 {
		t.Fatalf("mismatched = %d, want 2", c.Mismatched)
	}
	if c.Open != 1 {
		t.Fatalf("open = %d, want 1", c.Open)
	}
}

func TestNilBufferAndTracerAreNoOps(t *testing.T) {
	var b *Buffer
	b.Open(Span{})
	b.Close(0, StageQueue, 0, "")
	b.Add(Span{})
	b.Mark(Point{})
	if b.Digest() != 0 || b.Counts() != (Counts{}) || b.Spans() != nil {
		t.Fatal("nil buffer not a no-op")
	}
	var tr *Tracer
	if tr.Fleet() != nil || tr.Board(0) != nil || tr.Digests() != nil || tr.Boards() != 0 {
		t.Fatal("nil tracer not detached")
	}
	tl := tr.Timeline(5)
	if len(tl.Spans) != 0 {
		t.Fatal("nil tracer produced spans")
	}
}

func TestTracerTimelineMergesAndSorts(t *testing.T) {
	tr := NewTracer(2)
	id := DeriveID(3, 0)
	other := DeriveID(3, 1)

	// Queue span on the fleet buffer.
	tr.Fleet().Open(Span{Trace: id, Stage: StageQueue, Board: -1, Start: 0})
	tr.Fleet().Close(id, StageQueue, sim.Time(200), "home")
	// Residency on board 1 between t=200 and t=900.
	tr.Board(1).Open(Span{Trace: id, Stage: StageBoard, Board: 1, Start: 200})
	tr.Board(1).Close(id, StageBoard, sim.Time(900), "completed")
	// Ambient DVFS event on board 1 inside the window, one outside, one on
	// the other board.
	tr.Board(1).Mark(Point{Kind: "dvfs", Board: 1, Time: 500, Value: 800})
	tr.Board(1).Mark(Point{Kind: "dvfs", Board: 1, Time: 1500, Value: 600})
	tr.Board(0).Mark(Point{Kind: "dvfs", Board: 0, Time: 500, Value: 800})
	// A different trace's span must not leak in.
	tr.Board(0).Open(Span{Trace: other, Stage: StageBoard, Board: 0, Start: 0})

	tl := tr.Timeline(id)
	if tl.Trace != id.String() {
		t.Fatalf("trace label = %q", tl.Trace)
	}
	if len(tl.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 (%+v)", len(tl.Spans), tl.Spans)
	}
	if tl.Spans[0].Stage != StageQueue || tl.Spans[1].Stage != StageBoard {
		t.Fatalf("spans out of order: %+v", tl.Spans)
	}
	if len(tl.Points) != 1 || tl.Points[0].Time != 500 || tl.Points[0].Board != 1 {
		t.Fatalf("ambient attribution wrong: %+v", tl.Points)
	}
	if len(tl.Open) != 0 {
		t.Fatalf("other trace's open span leaked: %+v", tl.Open)
	}

	// Ledger aggregates across buffers; one span (other) is still open.
	c := tr.Counts()
	if c.Opened != 3 || c.Closed != 2 || c.Open != 1 {
		t.Fatalf("aggregate ledger = %+v", c)
	}
	o, cl, at, op, mm := tr.SpanCounts()
	if o != 3 || cl != 2 || at != 0 || op != 1 || mm != 0 {
		t.Fatalf("SpanCounts = %d %d %d %d %d", o, cl, at, op, mm)
	}
}

func TestTimelineJSONStageNames(t *testing.T) {
	tr := NewTracer(1)
	id := DeriveID(4, 0)
	tr.Fleet().Add(Span{Trace: id, Stage: StageBarrier, Board: -1, Start: 0, End: 100, Barrier: 1})
	raw, err := json.Marshal(tr.Timeline(id))
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"stage":"barrier"`, `"trace":"` + id.String() + `"`} {
		if !contains(s, want) {
			t.Errorf("timeline JSON missing %s:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDigestsVectorShape(t *testing.T) {
	tr := NewTracer(3)
	d := tr.Digests()
	if len(d) != 4 {
		t.Fatalf("digest vector length = %d, want 4", len(d))
	}
	for i, v := range d {
		if v != uint64(check.NewDigest()) {
			t.Fatalf("empty buffer %d digest = %x, want offset basis", i, v)
		}
	}
}
