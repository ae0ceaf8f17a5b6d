package fleet

import (
	"fmt"
	"io"

	"pricepower/internal/metrics"
)

// WriteHistograms renders the fleet's latency histograms in the
// Prometheus histogram text exposition (with trace-ID exemplars on the
// buckets that carry one): the fleet-level stage histograms, each board's
// histograms under a board label, and the fleet-wide k-way merge of every
// per-board histogram. Returns an error when tracing is detached.
func (f *Fleet) WriteHistograms(w io.Writer) error {
	if f.tracer == nil {
		return fmt.Errorf("fleet: tracing detached (Config.Trace off)")
	}
	if err := f.histRouting.WriteProm(w, "pricepower_fleet_routing_wall_ns",
		"Wall-clock dispatcher Route latency per barrier (ns).", ""); err != nil {
		return err
	}
	if err := f.histQueueWait.WriteProm(w, "pricepower_fleet_queue_wait_ms",
		"Virtual time from admission to routing (ms), with trace exemplars.", ""); err != nil {
		return err
	}
	if err := f.histBarrierLag.WriteProm(w, "pricepower_fleet_barrier_lag",
		"Barriers of pipeline skew observed at collection.", ""); err != nil {
		return err
	}
	if err := f.histRestart.WriteProm(w, "pricepower_fleet_restart_latency_barriers",
		"Barriers from crash detection to supervised restart.", ""); err != nil {
		return err
	}

	type boardHist struct {
		name, help string
		pick       func(*Board) *metrics.Histogram
	}
	hists := []boardHist{
		{"pricepower_board_step_wall_ns", "Wall-clock board step time per barrier (ns).",
			func(b *Board) *metrics.Histogram { return b.histStep }},
		{"pricepower_board_round_ms", "Virtual market-round duration (ms).",
			func(b *Board) *metrics.Histogram { return b.obs.histRound }},
		{"pricepower_board_task_residency_ms", "Virtual placement-to-completion time (ms), with trace exemplars.",
			func(b *Board) *metrics.Histogram { return b.histResidency }},
	}
	boards := f.Boards() // copy: a restart may swap a board mid-scrape
	for _, h := range hists {
		all := make([]*metrics.Histogram, 0, len(boards))
		for _, b := range boards {
			hb := h.pick(b)
			all = append(all, hb)
			if err := hb.WriteProm(w, h.name, h.help, fmt.Sprintf("board=%q", fmt.Sprint(b.ID))); err != nil {
				return err
			}
		}
		// Fleet-wide view: the k-way merge of every board's histogram
		// under the fleet name (merge snapshots, so no board lock is held
		// across boards).
		merged, err := metrics.MergeAll(all...)
		if err != nil {
			return err
		}
		fleetName := "pricepower_fleet" + h.name[len("pricepower_board"):]
		if err := merged.WriteProm(w, fleetName, h.help+" (all boards merged)", ""); err != nil {
			return err
		}
	}
	return nil
}
