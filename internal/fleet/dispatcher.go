package fleet

import (
	"pricepower/internal/task"
	"pricepower/internal/workload"
)

// defaultDemandPU is the routing-time demand estimate for a task with no
// profile and no usable spec data — roughly a medium Table 5 benchmark on
// a LITTLE core.
const defaultDemandPU = 300

// EstimateDemandPU predicts the LITTLE-cluster demand of a spec for
// routing purposes: the off-line profile when the task is registry-known,
// otherwise the spec's own first-phase cost at its target heart rate,
// otherwise a flat default. Routing only needs relative magnitudes — the
// market corrects any misprediction once the task lands.
func EstimateDemandPU(spec task.Spec) float64 {
	if p, ok := workload.ProfileFor(spec.Name); ok {
		return p.DemandLittle
	}
	if hr := spec.TargetHR(); hr > 0 && len(spec.Phases) > 0 {
		if d := spec.Phases[0].HBCostLittle * hr; d > 0 {
			return d
		}
	}
	return defaultDemandPU
}
