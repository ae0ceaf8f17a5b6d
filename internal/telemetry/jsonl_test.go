package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pricepower/internal/sim"
)

// TestJSONLRoundTrip pins the event-log contract: every field of every
// kind survives write → parse unchanged.
func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Time: 31700 * sim.Microsecond, Kind: KindPrice, Round: 1, Cluster: 0, Core: 2, Task: -1, Value: 0.004, Prev: 0.0038},
		{Time: 2 * sim.Second, Kind: KindBid, Round: 63, Cluster: 1, Core: 4, Task: 9, Value: 1.25, Prev: 1.5},
		{Time: 2 * sim.Second, Kind: KindClearing, Round: 63, Cluster: 1, Core: 4, Task: -1, Value: 600, Prev: 600},
		{Time: 3 * sim.Second, Kind: KindAllowance, Round: 94, Cluster: -1, Core: -1, Task: -1, Name: "normal", Value: 10.5, Prev: 10.5},
		{Time: 4 * sim.Second, Kind: KindThrottle, Round: 126, Cluster: -1, Core: -1, Task: -1, Name: "emergency", Class: "threshold", Value: 4.31},
		{Time: 4 * sim.Second, Kind: KindDVFS, Round: 126, Cluster: 1, Core: -1, Task: -1, Class: "force", Value: 800, Prev: 1000},
		{Time: 5 * sim.Second, Kind: KindMigration, Round: 157, Cluster: 1, Core: 3, Task: 2, Name: "x264", Class: "ms", Value: 0.00216, Prev: 1},
		{Time: 6 * sim.Second, Kind: KindPowerGate, Round: 189, Cluster: 0, Core: -1, Task: -1, Class: "off"},
		{Time: 7 * sim.Second, Kind: KindViolation, Round: 220, Cluster: -1, Core: -1, Task: -1, Name: "tdp-settled", Detail: "smoothed power 4.9 W above 4.4 W"},
	}

	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, ev := range in {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mutated events:\n in: %+v\nout: %+v", in, out)
	}
}

func TestJSONLSkipsBlankLinesAndReportsBadOnes(t *testing.T) {
	good := `{"t":1,"kind":"dvfs","round":2,"cluster":0,"core":-1,"task":-1,"value":800,"prev":600}`
	evs, err := ReadJSONL(strings.NewReader(good + "\n\n" + good + "\n"))
	if err != nil || len(evs) != 2 {
		t.Fatalf("blank-line log: %d events, err %v; want 2, nil", len(evs), err)
	}
	if _, err := ReadJSONL(strings.NewReader(good + "\n{broken\n")); err == nil {
		t.Error("malformed line parsed without error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"warp-core-breach"}` + "\n")); err == nil {
		t.Error("unknown kind parsed without error")
	}
}

// FuzzReadJSONL drives the event-log reader with arbitrary bytes: it never
// panics, and whatever events it decodes — all of them, or those before
// the first bad line — re-encode through JSONLSink and read back equal.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"t":1,"kind":"dvfs","round":2,"cluster":0,"core":-1,"task":-1,"value":800,"prev":600}` + "\n\n"))
	f.Add([]byte(`{"t":5,"kind":"board","round":9,"cluster":-1,"core":-1,"task":-1,"board":3,"name":"board-3","class":"crash","value":12,"prev":0}` + "\n{broken\n"))
	f.Add([]byte(`{"t":1,"kind":"warp-core-breach"}` + "\n"))
	f.Add([]byte("null\n{\"name\":\"\\ud800\\u00e9\",\"value\":-0,\"prev\":1e-320}\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _ := ReadJSONL(bytes.NewReader(data))
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, ev := range evs {
			sink.Emit(ev)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded log rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, evs) {
			t.Fatalf("round trip changed the events:\n  in  %+v\n  out %+v", evs, back)
		}
	})
}

// errWriter fails after n bytes, to exercise sticky error behavior.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errFull
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

var errFull = &writerFullError{}

type writerFullError struct{}

func (*writerFullError) Error() string { return "writer full" }

// A writer that fails mid-run (full disk) must be surfaced exactly once
// through the SetOnError hook — not silently truncate the evidence trail —
// and the hook may safely re-emit through the same emitter: the dark sink
// drops the re-entrant event instead of recursing.
//
// bufio only reports write errors when its 4 KiB buffer flushes, so the
// test pushes enough events to cross that boundary several times.
func TestJSONLFailingWriterSurfacesOnce(t *testing.T) {
	sink := NewJSONL(&errWriter{n: 512})
	em := NewEmitter(nil, sink)
	var calls int
	var surfaced error
	sink.SetOnError(func(err error) {
		calls++
		surfaced = err
		ev := E(KindViolation)
		ev.Name = "jsonl-sink"
		ev.Detail = err.Error()
		em.Emit(ev)
	})
	for i := 0; i < 300; i++ {
		ev := E(KindViolation)
		ev.Round = i
		ev.Detail = "padding so a few dozen events overflow the bufio buffer"
		em.Emit(ev)
	}
	if sink.Err() == nil {
		t.Fatal("failing writer reported no error after 300 events")
	}
	if surfaced == nil || surfaced.Error() != sink.Err().Error() {
		t.Errorf("hook surfaced %v, Err() holds %v", surfaced, sink.Err())
	}
	if calls != 1 {
		t.Errorf("SetOnError hook called %d times, want exactly 1", calls)
	}
	if err := sink.Flush(); err == nil {
		t.Error("Flush cleared the sticky error")
	}
}

func TestJSONLStickyError(t *testing.T) {
	sink := NewJSONL(&errWriter{n: 10})
	big := E(KindViolation)
	big.Detail = strings.Repeat("x", 100*1024) // larger than the bufio buffer
	sink.Emit(big)
	if sink.Err() == nil {
		t.Fatal("write past a full writer reported no error")
	}
	sink.Emit(E(KindDVFS)) // must not panic or clear the error
	if sink.Flush() == nil {
		t.Error("Flush cleared the sticky error")
	}
}

// The sink never writes a line the reader refuses: a line ReadJSONL
// accepted re-encodes within MaxLineBytes or is dropped and counted, and
// the line bound is the same on both sides.
func TestJSONLLineBound(t *testing.T) {
	ev := Event{Time: sim.Second, Kind: KindViolation, Round: 1, Cluster: -1, Core: -1, Task: -1}
	roundTrip := func(name string, evs ...Event) ([]Event, *JSONLSink) {
		t.Helper()
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, e := range evs {
			sink.Emit(e)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("%s: the sink wrote a line the reader refuses: %v", name, err)
		}
		return back, sink
	}
	// Lines the reader accepts, with a 200,000-character name of '<' or of
	// invalid UTF-8 bytes, write back and read back equal.
	for _, name := range []string{strings.Repeat("<", 200_000), strings.Repeat("\xff", 200_000)} {
		// The reader's input holds the name's raw bytes, as another
		// writer might have written them.
		e := ev
		e.Name = "NAME"
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		line = bytes.Replace(line, []byte("NAME"), []byte(name), 1)
		in, err := ReadJSONL(bytes.NewReader(append(line, '\n')))
		if err != nil || len(in) != 1 {
			t.Fatalf("a %d-byte line: %d events, %v", len(line), len(in), err)
		}
		if back, sink := roundTrip("re-encoded line", in...); !reflect.DeepEqual(back, in) || sink.Dropped() != 0 {
			t.Errorf("re-encoded line: %d events back, %d dropped", len(back), sink.Dropped())
		}
	}
	// An event whose encoding outgrows the bound is dropped and counted;
	// the events around it are written.
	big := ev
	big.Name = strings.Repeat("\xff", 200_000) // six bytes each encoded
	if back, sink := roundTrip("over-long event", ev, big, ev); len(back) != 2 || sink.Dropped() != 1 {
		t.Errorf("over-long event: %d events back, %d dropped; want 2, 1", len(back), sink.Dropped())
	}
	// A line of exactly MaxLineBytes, newline included, is written and read.
	fit := ev
	fit.Name = "a"
	base, _ := json.Marshal(fit) // one name byte, no newline
	fit.Name = strings.Repeat("a", MaxLineBytes-len(base))
	if back, sink := roundTrip("longest line", fit); len(back) != 1 || sink.Dropped() != 0 {
		t.Errorf("a %d-byte line: %d events back, %d dropped", MaxLineBytes, len(back), sink.Dropped())
	}
	fit.Name += "a"
	if back, sink := roundTrip("one byte over", fit); len(back) != 0 || sink.Dropped() != 1 {
		t.Errorf("a %d-byte line: %d events back, %d dropped", MaxLineBytes+1, len(back), sink.Dropped())
	}
}
