package dc

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
	"repro/internal/wnn"
)

// TestSharedScratchLeaksNothingAcrossDCs pins the contract that lets engine
// scratch be shared process-wide instead of held per DC: DCs over different
// plants — two sharing a frame length and a WNN classifier, one at another
// frame length so the pooled extractor is rebuilt between them — emit, when
// ticked interleaved and when ticked concurrently, exactly the reports each
// emits when run alone.
func TestSharedScratchLeaksNothingAcrossDCs(t *testing.T) {
	clf, err := wnn.NewChillerClassifier(chiller.DefaultConfig(), 4096, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		seed     int64
		faults   map[chiller.Fault]float64
		frameLen int
		wnn      bool
	}{
		{101, map[chiller.Fault]float64{chiller.MotorImbalance: 0.8}, 4096, true},
		{202, map[chiller.Fault]float64{chiller.OilWhirl: 0.9, chiller.GearToothWear: 0.8}, 4096, true},
		{303, map[chiller.Fault]float64{chiller.MotorBearingOuter: 0.8}, 2048, false},
	}
	build := func() ([]*DC, []*collector) {
		var dcs []*DC
		var sinks []*collector
		for _, s := range specs {
			pc := chiller.DefaultConfig()
			pc.Seed = s.seed
			plant, err := chiller.New(pc)
			if err != nil {
				t.Fatal(err)
			}
			for f, sev := range s.faults {
				if err := plant.SetFault(f, sev); err != nil {
					t.Fatal(err)
				}
			}
			cfg := DefaultConfig("dc-iso", "chiller/1")
			cfg.FrameLen = s.frameLen
			cfg.EnableSBFR = true
			sink := &collector{}
			d, err := New(cfg, plant, nil, sink)
			if err != nil {
				t.Fatal(err)
			}
			if s.wnn {
				if err := d.AttachWNN(clf); err != nil {
					t.Fatal(err)
				}
			}
			dcs = append(dcs, d)
			sinks = append(sinks, sink)
		}
		return dcs, sinks
	}
	const steps, step = 3, 4 * time.Hour // one vibration test per step

	var alone [][]*proto.Report
	dcs, sinks := build()
	for i, d := range dcs {
		for k := 0; k < steps; k++ {
			if err := d.RunFor(step); err != nil {
				t.Fatal(err)
			}
		}
		alone = append(alone, sinks[i].reports)
	}
	sources := map[string]bool{}
	for _, rs := range alone {
		for _, r := range rs {
			sources[r.KnowledgeSourceID] = true
		}
	}
	for _, ks := range []string{"ks/dli", "ks/wnn", "ks/sbfr"} {
		if !sources[ks] {
			t.Fatalf("reference runs emitted no %s report; the comparison would not cover it", ks)
		}
	}
	check := func(mode string, sinks []*collector) {
		t.Helper()
		for i, s := range sinks {
			if !reflect.DeepEqual(s.reports, alone[i]) {
				t.Errorf("%s: DC %d emitted %d reports that differ from its %d alone",
					mode, i, len(s.reports), len(alone[i]))
			}
		}
	}

	dcs, sinks = build()
	for k := 0; k < steps; k++ {
		for _, d := range dcs {
			if err := d.RunFor(step); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("interleaved", sinks)

	dcs, sinks = build()
	var wg sync.WaitGroup
	for _, d := range dcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < steps; k++ {
				if err := d.RunFor(step); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check("concurrent", sinks)
}

// replayedPlant serves prerecorded frames, a fresh one per acquisition, so a
// tick's allocations are the DC's own rather than the simulator's.
type replayedPlant struct {
	*chiller.Plant
	frames [chiller.NumPoints][][]float64
}

func (r *replayedPlant) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	f := r.frames[pt][0]
	r.frames[pt] = r.frames[pt][1:]
	return f, nil
}

// TestTickAllocBudget is the DC-level budget for the path that ships: after
// warm-up a default-size vibration test without WNN allocates less than one
// frame's worth of spectrum scratch (before the engines it allocated ≈ 3 MB:
// four fresh analyzers), with the WNN attached it stays under 64 KiB (≈ 2.1
// MB before the classifier ran on a pooled workspace and planned kernels),
// and the SBFR monitor's tick allocates nothing. The ticks run at
// GOMAXPROCS 4, so the test fans its points out to four compute workers on
// any host, borrowing up to one extractor and one WNN workspace per worker
// (one pooled crew per tick).
func TestTickAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const warm, measured = 2, 8
	plant, err := chiller.New(chiller.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("dc-budget", "chiller/1")
	cfg.EnableSBFR = true
	clf, err := wnn.NewChillerClassifier(chiller.DefaultConfig(), cfg.FrameLen, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var d *DC
	for _, c := range []struct {
		name   string
		clf    *wnn.ChillerClassifier
		budget uint64
	}{
		{"without WNN", nil, 512 << 10},
		{"with WNN", clf, 64 << 10},
	} {
		src := &replayedPlant{Plant: plant}
		for k := 0; k < warm+measured; k++ {
			for _, pt := range chiller.AllPoints() {
				f, err := plant.AcquireVibration(pt, cfg.FrameLen)
				if err != nil {
					t.Fatal(err)
				}
				src.frames[pt] = append(src.frames[pt], f)
			}
		}
		if d, err = New(cfg, src, nil, &collector{}); err != nil {
			t.Fatal(err)
		}
		if c.clf != nil {
			if err := d.AttachWNN(c.clf); err != nil {
				t.Fatal(err)
			}
		}
		now := cfg.Start
		tick := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := d.RunVibrationTest(now); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			now = now.Add(cfg.VibrationInterval)
			return after.TotalAlloc - before.TotalAlloc
		}
		for k := 0; k < warm; k++ {
			tick()
		}
		// The pooled scratch may be collected between ticks, and the race
		// detector makes sync.Pool drop puts at random; either costs one
		// rebuild on the next tick. The budget is the tick that found the
		// pools warm.
		best := tick()
		for k := 1; k < measured; k++ {
			best = min(best, tick())
		}
		t.Logf("%s: best tick allocates %d bytes", c.name, best)
		if best >= c.budget {
			t.Errorf("%s: RunVibrationTest allocates %d bytes per tick, budget %d", c.name, best, c.budget)
		}
	}

	ps := plant.ProcessState()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.cycleSBFR(ps); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SBFR scan tick allocates %.1f times, want 0", allocs)
	}
}
