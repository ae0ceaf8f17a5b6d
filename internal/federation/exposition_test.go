package federation

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pricepower/internal/exp"
	"pricepower/internal/fleet"
	"pricepower/internal/sim"
	"pricepower/internal/telemetry"
	"pricepower/internal/workload"
)

// checkExposition reports every way a Prometheus text document breaks the
// format: each family carries exactly one HELP and one TYPE line, both
// ahead of its samples, and its samples are contiguous; per histogram
// series, le ascends and ends at +Inf, cumulative counts never decrease,
// and _count equals the +Inf bucket.
func checkExposition(doc string) []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	type family struct {
		help, typ, samples int
		hist               bool
	}
	fams := map[string]*family{}
	cur := "" // family of the last header or sample
	famOf := func(name string) string {
		if fams[name] != nil {
			return name
		}
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if f := fams[strings.TrimSuffix(name, sfx)]; f != nil && f.hist {
				return strings.TrimSuffix(name, sfx)
			}
		}
		return name
	}
	type hist struct {
		les, cums []float64
		count     float64
		hasCount  bool
	}
	hists := map[string]*hist{} // by family and label set, le excluded
	var order []string
	histOf := func(key string) *hist {
		if hists[key] == nil {
			hists[key] = &hist{}
			order = append(order, key)
		}
		return hists[key]
	}

	for _, line := range strings.Split(strings.TrimSuffix(doc, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			kw, rest, _ := strings.Cut(rest, " ")
			name, arg, _ := strings.Cut(rest, " ")
			f := fams[name]
			if f == nil {
				f = &family{}
				fams[name] = f
			} else if f.samples > 0 {
				fail("%s: %s line after its samples", name, kw)
			}
			switch kw {
			case "HELP":
				f.help++
			case "TYPE":
				f.typ++
				f.hist = arg == "histogram"
			default:
				fail("unknown comment line %q", line)
			}
			if f.help > 1 || f.typ > 1 {
				fail("%s: repeated %s line", name, kw)
			}
			cur = name
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // exemplar
		}
		series, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			fail("malformed sample %q", line)
			continue
		}
		name, labels, _ := strings.Cut(series, "{")
		labels = strings.TrimSuffix(labels, "}")
		fam := famOf(name)
		f := fams[fam]
		if f == nil || f.typ == 0 {
			fail("%s: sample without a TYPE line", series)
			continue
		}
		if fam != cur {
			fail("%s: samples of family %s are not contiguous", series, fam)
		}
		cur = fam
		f.samples++
		if !f.hist {
			continue
		}
		switch name {
		case fam + "_bucket":
			i := strings.LastIndex(labels, `le="`)
			if i < 0 {
				fail("%s: bucket without le", series)
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(labels[i+4:], `"`), 64)
			if err != nil {
				fail("%s: bad le", series)
				continue
			}
			h := histOf(fam + "{" + strings.TrimSuffix(labels[:i], ","))
			h.les, h.cums = append(h.les, le), append(h.cums, v)
		case fam + "_count":
			h := histOf(fam + "{" + labels)
			h.count, h.hasCount = v, true
		}
	}
	for name, f := range fams {
		if f.help != 1 || f.typ != 1 {
			fail("%s: %d HELP and %d TYPE lines, want one each", name, f.help, f.typ)
		}
	}
	for _, key := range order {
		h := hists[key]
		n := len(h.les)
		switch {
		case n == 0 || !h.hasCount:
			fail("%s}: buckets or _count missing", key)
		case !math.IsInf(h.les[n-1], 1):
			fail("%s}: last le is %g, want +Inf", key, h.les[n-1])
		case h.count != h.cums[n-1]:
			fail("%s}: _count %g != +Inf bucket %g", key, h.count, h.cums[n-1])
		}
		for i := 1; i < n; i++ {
			if h.les[i] <= h.les[i-1] || h.cums[i] < h.cums[i-1] {
				fail("%s}: bucket %d: le %g after %g, count %g after %g",
					key, i, h.les[i], h.les[i-1], h.cums[i], h.cums[i-1])
			}
		}
	}
	return errs
}

// scrape GETs url and returns its body, failing on any status but 200.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s → %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// TestMetricsWellFormed scrapes the two /metrics endpoints — a traced
// 2-region, 2-board federation's and ppmsim's telemetry.NewMux over a
// run's registry — and checks each is one valid Prometheus document:
// histograms of several regions and boards share one HELP/TYPE pair per
// family, like the counters do.
func TestMetricsWellFormed(t *testing.T) {
	t.Run("federation", func(t *testing.T) {
		fc := fleet.Config{Boards: 2, Trace: true}
		f, err := New(Config{Seed: 5, Regions: []RegionConfig{
			{Name: "east", Fleet: fc, Price: flat(0.1)},
			{Name: "west", Fleet: fc, Price: flat(0.2)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := 0; i < 6; i++ {
			f.Submit(fedSpec("m", 1+i%3))
			mustStep(t, f)
		}
		srv := httptest.NewServer(NewMux(f))
		defer srv.Close()
		doc := scrape(t, srv.URL+"/metrics")
		for _, want := range []string{
			`pricepower_fed_epoch_revenue_usd_bucket{region="west",le="+Inf"}`,
			`pricepower_board_round_ms_bucket{region="east",board="1",le="+Inf"}`,
			`pricepower_fleet_round_ms_count{region="west"}`,
			`pricepower_ticks_total{region="east",board="0"}`,
		} {
			if !strings.Contains(doc, want) {
				t.Errorf("/metrics missing %s", want)
			}
		}
		for _, e := range checkExposition(doc) {
			t.Error(e)
		}
	})
	t.Run("ppmsim", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		em := telemetry.NewEmitter(reg)
		set, _ := workload.SetByName("m2")
		if _, err := exp.RunSetOpts("PPM", set, 4, sim.Second, exp.RunOptions{Telemetry: em}); err != nil {
			t.Fatal(err)
		}
		lat := reg.Histogram(`x_latency_ms{class="a"}`, "Test latency.", 1, 2, 8)
		reg.Histogram(`x_latency_ms{class="b"}`, "Test latency.", 1, 2, 8).Record(300)
		for _, v := range []float64{0.5, 3, 3, 1e9} {
			lat.RecordExemplar(v, 7)
		}
		srv := httptest.NewServer(telemetry.NewMux(em, nil))
		defer srv.Close()
		doc := scrape(t, srv.URL+"/metrics")
		for _, want := range []string{
			`pricepower_ticks_total `,
			`x_latency_ms_bucket{class="a",le="4"} 3 # {trace_id="0000000000000007"} 3`,
			`x_latency_ms_count{class="b"} 1`,
		} {
			if !strings.Contains(doc, want) {
				t.Errorf("/metrics missing %s", want)
			}
		}
		for _, e := range checkExposition(doc) {
			t.Error(e)
		}
	})
}

// TestCheckExpositionCatchesDefects: the checker refuses each defect it
// is there to find.
func TestCheckExpositionCatchesDefects(t *testing.T) {
	for name, doc := range map[string]string{
		"repeated TYPE":   "# HELP a A.\n# TYPE a gauge\na{r=\"x\"} 1\n# HELP a A.\n# TYPE a gauge\na{r=\"y\"} 1\n",
		"no HELP":         "# TYPE a gauge\na 1\n",
		"split family":    "# HELP a A.\n# TYPE a gauge\na 1\n# HELP a_x X.\n# TYPE a_x gauge\na_x 1\na{k=\"v\"} 2\n",
		"no +Inf":         "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch":  "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"decreasing":      "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"le out of order": "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	} {
		if len(checkExposition(doc)) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}
