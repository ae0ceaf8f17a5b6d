// Priorities: the paper's Figure 7 study. Two demanding tasks share one
// big core with the LBT module disabled; the run is performed twice — with
// equal priorities and with swaptions at priority 7 — and the fraction of
// time each task spends outside its normalized performance goal
// [0.95, 1.05] is reported. Higher priority buys a larger allowance, which
// buys supply. The runs are exp.RunFig7's, 60 s measured after the warm-up.
//
//	go run ./examples/priorities
package main

import (
	"fmt"
	"os"

	"pricepower/internal/exp"
	"pricepower/internal/sim"
)

func main() {
	_, a, b, err := exp.Fig7(60 * sim.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "priorities: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("(a) equal priorities (1, 1):")
	fmt.Printf("    swaptions outside goal: %5.1f %%\n", a.SwaptionsOutside*100)
	fmt.Printf("    bodytrack outside goal: %5.1f %%\n", a.BodytrackOutside*100)
	fmt.Println("(b) swaptions at priority 7:")
	fmt.Printf("    swaptions outside goal: %5.1f %%  (was %.1f %%)\n", b.SwaptionsOutside*100, a.SwaptionsOutside*100)
	fmt.Printf("    bodytrack outside goal: %5.1f %%  (was %.1f %%)\n", b.BodytrackOutside*100, a.BodytrackOutside*100)
	fmt.Println("higher priority → larger allowance → more supply: the")
	fmt.Println("prioritized task holds its range while its neighbour suffers.")
}
