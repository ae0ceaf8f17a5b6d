package fault

import "pricepower/internal/sim"

// RandomScenario generates a chaos-style fault schedule for a chip of the
// given geometry: 3–6 faults of random types, windows placed inside
// [10, horizon−10) rounds with type-appropriate durations and magnitudes.
// Deterministic in seed (the schedule and every perturbation drawn under
// it), so a chaos run replays bit-identically — the property the chaos
// tests pin through the digest machinery.
//
// Durations are deliberately bounded (a regulator refusing down-steps
// forever would pin power above TDP with no physical recourse): every
// window fits the "transient fault, bounded recovery" contract the
// degradation logic — and the chaos tests' invariant windows — assume.
func RandomScenario(seed uint64, clusters, cores, horizon int) Scenario {
	rng := sim.NewRand(seed)
	sc := Scenario{Seed: mix64(seed ^ 0xfa017)}
	n := 3 + rng.Intn(4)
	if horizon < 60 {
		horizon = 60
	}
	for i := 0; i < n; i++ {
		t := Types[rng.Intn(len(Types))]
		f := Fault{Type: t, Cluster: rng.Intn(clusters)}
		var dur int
		switch t {
		case PowerNoise:
			dur = 10 + rng.Intn(30)
			f.Magnitude = rng.Range(1, 4)
			if rng.Intn(3) == 0 {
				f.Cluster = -1 // chip-level sensor
			}
		case PowerDropout:
			dur = 3 + rng.Intn(8)
		case PowerStuck:
			dur = 3 + rng.Intn(8)
		case DVFSFail:
			dur = 2 + rng.Intn(7)
			f.Magnitude = rng.Range(0.5, 1)
		case DVFSDelay:
			dur = 4 + rng.Intn(10)
			f.Magnitude = rng.Range(50, 200) // ms
		case CoreUnplug:
			dur = 8 + rng.Intn(23)
			f.Core = rng.Intn(cores)
			f.Cluster = -1
		case MigrationBlowup:
			dur = 5 + rng.Intn(16)
			f.Magnitude = rng.Range(4, 20)
		}
		f.Rounds = dur
		f.Start = 10 + rng.Intn(horizon-20-dur)
		sc.Faults = append(sc.Faults, f)
	}
	return sc
}
