// Historian replay: record a week of monitoring into a disk-backed
// historian, then re-open the archive cold and drive the stored process
// history back through the DC's fuzzy analyzer — the §4.6 promise that
// archived data stays *analyzable*, not just stored. The offline pass must
// rediscover the same fault the live DC called, and the archived vibration
// features must fit the same rising trend the PDME projected.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/fuzzy"
	"repro/internal/historian"
	"repro/internal/trend"

	mpros "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "mpros-historian-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Phase 1: live monitoring, recording into the archive ----------
	station, err := mpros.NewStation(mpros.StationConfig{
		Seed:         11,
		HistorianDir: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := station.InjectFault(chiller.RefrigerantLowCharge, 0.6); err != nil {
		log.Fatal(err)
	}
	const week = 7 * 24 * time.Hour
	if err := station.Advance(week); err != nil {
		log.Fatal(err)
	}
	liveReports := station.DC.ReportsSent()
	fmt.Printf("recorded: one week of monitoring, %d live reports, archive at %s\n",
		liveReports, dir)
	if err := station.Close(); err != nil {
		log.Fatal(err)
	}

	// ---- Phase 2: cold replay from the archive -------------------------
	store, err := historian.Open(historian.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	fmt.Printf("reopened: %d channels recovered\n", len(store.Channels()))

	// Reassemble the process scans: every proc/* channel was appended at
	// the same scan instants, so the stored series zip back into full
	// ProcessState snapshots.
	series := make(map[string][]historian.Sample)
	for _, f := range dc.ProcFields {
		it, err := store.Query(dc.ProcChannel(f), time.Time{}, time.Time{})
		if err != nil {
			log.Fatal(err)
		}
		series[f] = it.Collect()
	}
	scans := len(series[dc.ProcFields[0]])
	for _, f := range dc.ProcFields {
		if len(series[f]) != scans {
			log.Fatalf("ragged archive: %s has %d scans, want %d", f, len(series[f]), scans)
		}
	}

	// Drive the snapshots through a fresh fuzzy analyzer, offline.
	fz, err := fuzzy.NewChillerDiagnostics()
	if err != nil {
		log.Fatal(err)
	}
	calls := map[string]int{}
	for i := 0; i < scans; i++ {
		vals := make(map[string]float64, len(dc.ProcFields))
		for _, f := range dc.ProcFields {
			vals[f] = series[f][i].Value
		}
		ps, err := dc.ProcessStateFromScalars(vals)
		if err != nil {
			log.Fatal(err)
		}
		results, err := fz.Diagnose(ps, 0.15)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			calls[r.Condition]++
		}
	}
	fmt.Printf("replayed: %d archived process scans through the fuzzy analyzer\n", scans)
	conds := make([]string, 0, len(calls))
	for c := range calls {
		conds = append(conds, c)
	}
	sort.Strings(conds)
	for _, c := range conds {
		fmt.Printf("  %-38s called in %d/%d scans\n", c, calls[c], scans)
	}
	if calls[chiller.RefrigerantLowCharge.String()] == 0 {
		log.Fatal("replay failed to rediscover the injected refrigerant low charge")
	}

	// Trend over the archived vibration features: fit the daily RMS
	// rollup means of each point, folded from the recovered samples.
	bestPt, bestSlope := "", 0.0
	for _, pt := range chiller.AllPoints() {
		rolls, err := store.QueryRollup(dc.VibChannel(pt, "rms"), 24*time.Hour,
			time.Time{}, time.Time{})
		if err != nil || len(rolls) < 3 {
			continue
		}
		pts := make([]trend.Point, len(rolls))
		for i, r := range rolls {
			pts[i] = trend.Point{At: r.Start.Add(r.Dur / 2), Value: r.Mean()}
		}
		fit, err := trend.TheilSen(pts)
		if err != nil {
			continue
		}
		if bestPt == "" || fit.Slope > bestSlope {
			bestPt, bestSlope = pt.String(), fit.Slope
		}
	}
	fmt.Printf("trend: steepest daily-rollup RMS slope at %s (%+.3g per day)\n",
		bestPt, bestSlope*86400)
	fmt.Println("ok: archive replay reproduces the live diagnosis")
}
