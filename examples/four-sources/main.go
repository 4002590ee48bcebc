// Four sources: the complete §1.1 Data Concentrator with all four
// knowledge sources live — the DLI-style vibration rulebook, the fuzzy
// process diagnostics, the SBFR process monitor, and the wavelet neural
// network — feeding one PDME. A compound failure (a bearing defect plus a
// refrigerant leak) exercises both the reinforcement path (several sources
// agreeing on a condition raise its fused belief beyond any single source's
// believability) and the independence of logical failure groups.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/chiller"
	"repro/internal/wnn"

	mpros "repro"
)

func main() {
	station, err := mpros.NewStation(mpros.StationConfig{
		Seed:       21,
		EnableSBFR: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer station.Close()

	// Train the WNN classifier (the fourth source). Smaller frames keep
	// training quick for the example; match the DC by rebuilding it with
	// the classifier's frame length in a real deployment, or train at the
	// DC's 16384 — here we train at the DC default.
	fmt.Println("training wavelet neural network classifiers...")
	clf, err := wnn.NewChillerClassifier(station.Plant.Config(), 16384, 10, 5)
	if err != nil {
		log.Fatal(err)
	}
	if err := station.DC.AttachWNN(clf); err != nil {
		log.Fatal(err)
	}

	// Compound failure: mechanical + refrigeration cycle.
	if err := station.InjectFault(chiller.MotorBearingOuter, 0.75); err != nil {
		log.Fatal(err)
	}
	if err := station.InjectFault(chiller.RefrigerantLowCharge, 0.8); err != nil {
		log.Fatal(err)
	}

	if err := station.Advance(24 * time.Hour); err != nil {
		log.Fatal(err)
	}

	// Which sources spoke?
	bySource := map[string]int{}
	for _, r := range station.DC.StoredReports("") {
		bySource[r.Source]++
	}
	fmt.Println("\nreports per knowledge source over one day:")
	for _, ks := range []string{"ks/dli", "ks/fuzzy", "ks/sbfr", "ks/wnn"} {
		fmt.Printf("  %-9s %d\n", ks, bySource[ks])
	}

	// Fused state: both faults believed, independently, each reinforced by
	// multiple sources.
	fmt.Println("\nfused conclusions:")
	for _, item := range station.PrioritizedList() {
		fmt.Printf("  %-38s group=%-20s Bel=%.3f (%d reports)\n",
			item.Condition, item.Group, item.Belief, item.Reports)
	}
	view, err := station.Browser()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n" + view)
}
