package telemetry

import (
	"strings"
	"testing"
)

func TestExportAndInjectLabel(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A total.").Add(3)
	r.Counter(`b_total{kind="x"}`, "B total.").Add(1)
	r.Gauge("c", "C gauge.").Set(2.5)

	series := r.Export()
	if len(series) != 3 {
		t.Fatalf("exported %d series, want 3", len(series))
	}
	for i := 1; i < len(series); i++ {
		if a, b := series[i-1], series[i]; a.Base > b.Base || a.Base == b.Base && a.Name > b.Name {
			t.Fatalf("export not sorted by family, then name: %q before %q", a.Name, b.Name)
		}
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	if s := byName["a_total"]; s.Value != 3 || !s.Int || s.Type != "counter" || s.Base != "a_total" {
		t.Errorf("a_total exported wrong: %+v", s)
	}
	if s := byName[`b_total{kind="x"}`]; s.Base != "b_total" {
		t.Errorf("labeled base wrong: %+v", s)
	}
	if s := byName["c"]; s.Value != 2.5 || s.Int || s.Type != "gauge" {
		t.Errorf("gauge exported wrong: %+v", s)
	}

	if got := InjectLabel("x", "board", "3"); got != `x{board="3"}` {
		t.Errorf("InjectLabel plain = %s", got)
	}
	if got := InjectLabel(`x{k="v"}`, "board", "3"); got != `x{board="3",k="v"}` {
		t.Errorf("InjectLabel labeled = %s", got)
	}
}

// TestAppendLabeledStacks pins the shared label-injection path: relabeling
// an already-relabeled export must nest, newest key outermost, and the
// merged document must render each label stack as one sample. This is the
// regression test for the fedd case — region stacked on board.
func TestAppendLabeledStacks(t *testing.T) {
	r := NewRegistry()
	r.Counter("ticks_total", "Ticks.").Add(9)
	r.Counter(`evts_total{kind="x"}`, "Events.").Add(2)

	perBoard := AppendLabeled(nil, r.Export(), "board", "3")
	merged := AppendLabeled(nil, perBoard, "region", "eu")

	var b strings.Builder
	if err := WriteSeriesProm(&b, merged); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ticks_total{region="eu",board="3"} 9`,
		`evts_total{region="eu",board="3",kind="x"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE ticks_total counter") != 1 {
		t.Errorf("TYPE header not deduplicated:\n%s", out)
	}
	// AppendLabeled must not mutate its source slice.
	if perBoard[0].Name != `evts_total{board="3",kind="x"}` {
		t.Errorf("source series mutated: %q", perBoard[0].Name)
	}
}

// TestWriteSeriesProm merges two relabeled registries into one document:
// headers must appear once per base, values per label set.
func TestWriteSeriesProm(t *testing.T) {
	mk := func(v uint64) *Registry {
		r := NewRegistry()
		r.Counter("ticks_total", "Ticks.").Add(v)
		return r
	}
	var merged []Series
	for i, r := range []*Registry{mk(5), mk(7)} {
		for _, s := range r.Export() {
			s.Name = InjectLabel(s.Name, "board", string(rune('0'+i)))
			merged = append(merged, s)
		}
	}
	var b strings.Builder
	if err := WriteSeriesProm(&b, merged); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE ticks_total counter") != 1 {
		t.Errorf("TYPE header not deduplicated:\n%s", out)
	}
	if !strings.Contains(out, `ticks_total{board="0"} 5`) ||
		!strings.Contains(out, `ticks_total{board="1"} 7`) {
		t.Errorf("relabeled samples missing:\n%s", out)
	}
}
