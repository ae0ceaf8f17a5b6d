package platform

// ForceFullTicks turns replay and steady spans off, so that every tick is
// computed afresh: the oracle the equivalence tests compare against.
func ForceFullTicks(p *Platform) { p.fullTicks = true }
