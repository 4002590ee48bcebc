// Chiller monitoring: the full condition-based-maintenance story on one
// machine. A bearing degrades along an exponential wear profile over three
// weeks of virtual operation; the Data Concentrator's scheduled vibration
// tests pick the fault up, severity grades escalate through the §6.1
// categories, and the PDME's fused prognosis tightens as evidence
// accumulates.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"

	mpros "repro"
)

func main() {
	station, err := mpros.NewStation(mpros.StationConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer station.Close()

	// Wear-out profile: onset after 2 days, full severity ~18 days later.
	degrader, err := chiller.NewDegrader(station.Plant, []chiller.DegradationProfile{{
		Fault:       chiller.MotorBearingOuter,
		OnsetHours:  48,
		GrowthHours: 430,
		Shape:       chiller.Exponential,
	}})
	if err != nil {
		log.Fatal(err)
	}
	// Advance wear hourly on the DC's own scheduler, like a real plant
	// accumulating operating hours between tests.
	if err := station.DC.Scheduler().Schedule(&dc.Task{
		Name:     "wear",
		Interval: time.Hour,
		Run:      func(time.Time) error { return degrader.Advance(1) },
	}, 0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("day  severity  fused-belief  grade-of-last-report  t(P=0.5)")
	for day := 1; day <= 21; day++ {
		if err := station.Advance(24 * time.Hour); err != nil {
			log.Fatal(err)
		}
		belief, err := station.Belief(chiller.MotorBearingOuter)
		if err != nil {
			log.Fatal(err)
		}
		grade := "-"
		tHalf := "-"
		if reports := station.DC.StoredReports(chiller.MotorBearingOuter.String()); len(reports) > 0 {
			grade = gradeOf(reports[len(reports)-1].Severity).String()
		}
		if v := station.FusedPrognostic(chiller.MotorBearingOuter); len(v) > 0 {
			if d, ok := v.TimeToProbability(0.5, 365*24*time.Hour); ok {
				tHalf = fmt.Sprintf("%.1fd", d.Hours()/24)
			}
		}
		fmt.Printf("%3d  %8.2f  %12.3f  %-20s  %s\n",
			day, station.Plant.FaultSeverity(chiller.MotorBearingOuter), belief, grade, tHalf)
	}

	fmt.Println()
	view, err := station.Browser()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(view)
}

// gradeOf mirrors proto.GradeSeverity without importing internals here.
func gradeOf(severity float64) mpros.SeverityGrade {
	switch {
	case severity <= 0:
		return mpros.SeverityNone
	case severity < 0.25:
		return mpros.SeveritySlight
	case severity < 0.5:
		return mpros.SeverityModerate
	case severity < 0.75:
		return mpros.SeveritySerious
	default:
		return mpros.SeverityExtreme
	}
}
