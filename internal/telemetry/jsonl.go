package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"sync"
)

// MaxLineBytes bounds one line of an event log, its newline included.
// ReadJSONL reads every line up to it, and JSONLSink never writes a longer
// one. The encoder may grow a field several times over (an invalid UTF-8
// byte becomes a six-byte \ufffd escape), so an event read from a valid
// log can encode past the bound; the sink drops it (see Emit).
const MaxLineBytes = 1 << 20

// JSONLSink writes one JSON object per event to a writer — the headless
// event log behind `ppmsim -events out.jsonl`. Writes are buffered and
// mutex-guarded (Emit may be called from any goroutine); call Flush (or
// Close) before reading the output.
//
// Ordering contract: the sink writes events in Emit order — it imposes no
// order of its own. Single-platform runs emit on one goroutine, so lines
// land in simulation order. Emitters on several goroutines interleave in
// no fixed order.
type JSONLSink struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer // non-nil when the sink owns the underlying writer
	err     error     // first write error; subsequent emits are dropped
	onErr   func(error)
	line    bytes.Buffer // one event's encoding
	enc     *json.Encoder
	dropped int
}

// NewJSONL builds a sink over w. The caller keeps ownership of w; use
// NewJSONLCloser to hand over an owned file.
func NewJSONL(w io.Writer) *JSONLSink {
	return newJSONL(w, nil)
}

// NewJSONLCloser builds a sink that closes wc on Close (the `-events file`
// path).
func NewJSONLCloser(wc io.WriteCloser) *JSONLSink {
	return newJSONL(wc, wc)
}

// newJSONL builds a sink whose encoder leaves <, > and & as they are: the
// log is not HTML, and a six-byte escape per character would push a line
// read back from a valid log past MaxLineBytes.
func newJSONL(w io.Writer, c io.Closer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w), c: c}
	s.enc = json.NewEncoder(&s.line)
	s.enc.SetEscapeHTML(false)
	return s
}

// SetOnError registers a callback invoked exactly once, outside the sink's
// lock, when the first write/encode error makes the sink go dark. Without
// one, the first failure is logged once via the standard logger — a sink
// that silently swallows every event after an error turns a full disk into
// a mysteriously truncated evidence trail. The callback may emit (e.g. a
// "violation" event recording the loss) — this sink itself drops the
// re-entrant event because its sticky error is already set.
func (s *JSONLSink) SetOnError(fn func(error)) {
	s.mu.Lock()
	s.onErr = fn
	s.mu.Unlock()
}

// Emit implements Sink. An event whose line would exceed MaxLineBytes is
// dropped and counted (see Dropped); the sink stays live. Encoding errors
// are sticky: the first one is retained (see Err), surfaced once through
// the SetOnError hook (or the standard logger), and later events are
// discarded rather than interleaving partial lines.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.line.Reset()
	if err := s.enc.Encode(ev); err != nil {
		s.err = err
	} else if s.line.Len() > MaxLineBytes {
		s.dropped++
	} else {
		_, s.err = s.w.Write(s.line.Bytes())
	}
	err, notify := s.err, s.onErr
	s.mu.Unlock()
	if err == nil {
		return
	}
	if notify != nil {
		notify(err)
	} else {
		log.Printf("telemetry: jsonl sink disabled after write error: %v", err)
	}
}

// Flush drains the buffer to the underlying writer. A flush failure is
// sticky like a write failure: the sink goes dark and Err reports it.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Dropped reports how many events were too long to write (see Emit).
func (s *JSONLSink) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Err reports the first write/encode error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes and, when the sink owns the writer, closes it.
func (s *JSONLSink) Close() error {
	if err := s.Flush(); err != nil {
		if s.c != nil {
			s.c.Close()
		}
		return err
	}
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// ReadJSONL parses an event log written by JSONLSink back into events —
// the read half of the round-trip the event-stream tests and the
// throttle-episode reconstruction (EXPERIMENTS.md) rely on. Blank lines
// are skipped; the first malformed line, or one longer than MaxLineBytes,
// aborts with its error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return out, err
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}
