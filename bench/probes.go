package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/dsp"
	"repro/internal/fusion"
	"repro/internal/fuzzy"
	"repro/internal/historian"
	"repro/internal/journal"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/sbfr"
	"repro/internal/shard"
	"repro/internal/uplink"
	"repro/internal/vibration"
	"repro/internal/wavelet"
	"repro/internal/wnn"
)

// The probes time single layer calls standalone, on the same inputs the
// workload feeds them: a traced run can only put spans around the calls the
// harness itself makes, and the layers below (dsp inside vibration inside the
// DC, the journal inside the PDME) are in-process calls it cannot see. Each
// probe reports the median per-call time.

// timeEach times fn alone, n times, calling prep untimed before each; it
// returns the median in nanoseconds.
func timeEach(n int, prep, fn func(i int) error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if prep != nil {
			if err := prep(i); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return median(times), nil
}

// probe is one standalone timing: run returns nanoseconds, stored under
// metric divided by div.
type probe struct {
	metric string
	div    float64
	run    func() (float64, error)
}

func (r *result) runProbes(probes []probe) error {
	for _, p := range probes {
		ns, err := p.run()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.metric, err)
		}
		r.set(p.metric, ns/p.div)
	}
	return nil
}

// probeDCLayers times the algorithm layers under the DC on a faulted
// recording's frames.
func probeDCLayers(res *result, rec *recording, clf *wnn.ChillerClassifier) error {
	cfg := rec.cfg
	frame := func(i int) ([]float64, chiller.MeasurementPoint) {
		pt := chiller.MeasurementPoint(i % chiller.NumPoints)
		return rec.frames[(i/chiller.NumPoints)%len(rec.frames)][pt], pt
	}
	threshold := dc.DefaultConfig("x", "x").CallThreshold
	engine := vibration.NewEngine(cfg, threshold)
	features := map[chiller.MeasurementPoint]*vibration.Features{}
	for i := 0; i < chiller.NumPoints; i++ {
		f, pt := frame(i)
		var err error
		if features[pt], err = vibration.Extract(f, cfg, pt); err != nil {
			return fmt.Errorf("probe features: %w", err)
		}
	}
	vctx := &vibration.Context{Load: rec.load, Process: rec.states[0]}
	fz, err := fuzzy.NewChillerDiagnostics()
	if err != nil {
		return fmt.Errorf("probe fuzzy: %w", err)
	}
	monitor, err := sbfr.NewSystemFromSource(dc.ProcessMonitorSource, dc.ProcessMonitorChannels)
	if err != nil {
		return fmt.Errorf("probe sbfr: %w", err)
	}
	db := relstore.NewMemory()
	defer db.Close()
	if err := db.CreateTable(relstore.Schema{Name: "probe", Columns: []relstore.Column{
		{Name: "point", Type: relstore.String, Indexed: true},
		{Name: "rms", Type: relstore.Float},
		{Name: "crest", Type: relstore.Float},
		{Name: "kurtosis", Type: relstore.Float},
		{Name: "taken_at", Type: relstore.Time},
	}}); err != nil {
		return fmt.Errorf("probe relstore: %w", err)
	}
	hist, err := historian.Open(historian.Options{})
	if err != nil {
		return fmt.Errorf("probe historian: %w", err)
	}
	defer hist.Close()
	if err := hist.EnsureChannel(historian.ChannelConfig{Name: "probe"}); err != nil {
		return fmt.Errorf("probe historian: %w", err)
	}
	return res.runProbes([]probe{
		{"dsp.analyze_frame_us", 1e3, func() (float64, error) {
			return timeCalls(9, 4, func(i int) error {
				f, _ := frame(i)
				_, err := dsp.AnalyzeFrame(f, cfg.SampleRate, dsp.Hann)
				return err
			})
		}},
		{"vibration.extract_us", 1e3, func() (float64, error) {
			return timeCalls(9, 4, func(i int) error {
				f, pt := frame(i)
				_, err := vibration.Extract(f, cfg, pt)
				return err
			})
		}},
		{"vibration.diagnose_us", 1e3, func() (float64, error) {
			return timeCalls(15, 16, func(int) error {
				_, err := engine.Diagnose(features, vctx)
				return err
			})
		}},
		{"wavelet.decompose_us", 1e3, func() (float64, error) {
			fc := wnn.DefaultFeatureConfig()
			return timeCalls(9, 4, func(i int) error {
				f, _ := frame(i)
				_, err := wavelet.Decompose(fc.Kind, f, fc.WaveletLevels)
				return err
			})
		}},
		{"wnn.classify_us", 1e3, func() (float64, error) {
			return timeCalls(9, 4, func(i int) error {
				f, pt := frame(i)
				_, err := clf.Classify(f, pt)
				return err
			})
		}},
		{"fuzzy.diagnose_us", 1e3, func() (float64, error) {
			return timeCalls(15, 64, func(i int) error {
				_, err := fz.Diagnose(rec.states[i%len(rec.states)], threshold)
				return err
			})
		}},
		{"sbfr.cycle_ns", 1, func() (float64, error) {
			return timeCalls(15, 1024, func(i int) error {
				st := rec.states[i%len(rec.states)]
				return monitor.Cycle([]float64{st.OilPressurePSI, st.EvapPressurePSI})
			})
		}},
		{"relstore.insert_us", 1e3, func() (float64, error) {
			return timeCalls(15, 256, func(i int) error {
				_, err := db.Insert("probe", relstore.Row{
					"point": chiller.MeasurementPoint(i % chiller.NumPoints).String(), "rms": 0.1, "crest": 3.0,
					"kurtosis": 3.0, "taken_at": virtualEpoch.Add(time.Duration(i) * time.Second),
				})
				return err
			})
		}},
		{"historian.append_us", 1e3, func() (float64, error) {
			return timeCalls(15, 1024, func(i int) error {
				return hist.Append("probe", virtualEpoch.Add(time.Duration(i)*time.Second), float64(i))
			})
		}},
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// probeIngestLayers times the layers of the ingest path one at a time, on
// reports drawn like the workload's, with their files under dir.
func probeIngestLayers(res *result, dir string, seed int64) error {
	const n = 1024
	rng := rand.New(rand.NewSource(seed + 2))
	conditions := allConditions()

	journaled, err := newPDMENode(ingestMachines)
	if err != nil {
		return err
	}
	defer journaled.close()
	journalDir := filepath.Join(dir, "pdme-journal")
	// No automatic checkpoints: the WAL then holds exactly the n appends.
	if _, err := journaled.engine.OpenJournal(pdme.JournalOptions{Dir: journalDir, CheckpointEvery: -1}); err != nil {
		return fmt.Errorf("probe journal: %w", err)
	}
	plain, err := newPDMENode(ingestMachines)
	if err != nil {
		return err
	}
	defer plain.close()
	reports := genReports(rng, 4*n, "dc-probe", journaled.machines, conditions, virtualEpoch)

	var jr *journal.Journal
	if jr, _, err = journal.Open(filepath.Join(dir, "raw-journal")); err != nil {
		return fmt.Errorf("probe journal: %w", err)
	}
	defer jr.Close()
	raw, err := os.OpenFile(filepath.Join(dir, "raw-fsync"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("probe fsync: %w", err)
	}
	defer raw.Close()

	sink := proto.NewServer(proto.SinkFunc(func(*proto.Report) error { return nil }))
	addr, err := sink.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe server: %w", err)
	}
	defer sink.Close()
	client, err := proto.Dial(addr)
	if err != nil {
		return fmt.Errorf("probe dial: %w", err)
	}
	defer client.Close()

	dedup := proto.NewDedup(0)
	for seq := uint64(1); seq <= 2*proto.DefaultDedupWindow; seq++ {
		dedup.Mark("dc-probe", 1, seq)
	}
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		return fmt.Errorf("probe oosm: %w", err)
	}
	// The shape of the PDME's report class: eight strings, two floats, a time.
	reportProps := map[string]oosm.PropType{"timestamp": oosm.PropTime, "severity": oosm.PropFloat, "belief": oosm.PropFloat}
	for _, p := range []string{"dc_id", "ks_id", "sensed", "condition", "explanation", "recommend", "prognostics", "suspect"} {
		reportProps[p] = oosm.PropString
	}
	if err := model.RegisterClass(oosm.Class{Name: "report_probe", Props: reportProps}); err != nil {
		return fmt.Errorf("probe oosm: %w", err)
	}
	diag, err := fusion.NewDiagnosticFuser(chillerGroups())
	if err != nil {
		return fmt.Errorf("probe fusion: %w", err)
	}

	var frame []byte
	var bodyLen int
	if err := res.runProbes([]probe{
		{"proto.encode_ns", 1, func() (float64, error) {
			return timeCalls(15, 256, func(i int) error {
				var err error
				frame, err = proto.AppendReportEnvelope(frame[:0], reports[i%len(reports)], "dc-probe", 1, uint64(i+1))
				return err
			})
		}},
		{"proto.ack_us", 1e3, func() (float64, error) {
			return timeEach(n, nil, func(i int) error {
				_, err := client.SendTagged(reports[i], 1, uint64(i+1))
				return err
			})
		}},
		{"proto.dedup_mark_ns", 1, func() (float64, error) {
			seq := uint64(2 * proto.DefaultDedupWindow)
			return timeCalls(15, 64, func(int) error {
				seq++
				dedup.Mark("dc-probe", 1, seq)
				return nil
			})
		}},
		{"pdme.accept_us", 1e3, func() (float64, error) {
			return timeEach(n, nil, func(i int) error {
				return journaled.engine.DeliverTagged(reports[i], "dc-probe", 1, uint64(i+1))
			})
		}},
		{"pdme.accept_nojournal_us", 1e3, func() (float64, error) {
			return timeEach(n, nil, func(i int) error {
				return plain.engine.DeliverTagged(reports[i], "dc-probe", 1, uint64(i+1))
			})
		}},
		{"journal.bytes_per_report", 1, func() (float64, error) {
			size, err := dirBytes(journalDir)
			bodyLen = int(size/n) - 21 // the WAL's per-record framing
			return float64(size) / n, err
		}},
		{"journal.append_us", 1e3, func() (float64, error) {
			body := make([]byte, bodyLen)
			return timeEach(n, nil, func(int) error {
				_, err := jr.Append(1, body)
				return err
			})
		}},
		{"journal.append_disk_us", 1e3, func() (float64, error) {
			rec := make([]byte, bodyLen+21)
			return timeEach(n, nil, func(int) error {
				if _, err := raw.Write(rec); err != nil {
					return err
				}
				return raw.Sync()
			})
		}},
		{"oosm.create_us", 1e3, func() (float64, error) {
			return timeEach(n, nil, func(i int) error {
				r := reports[i]
				_, err := model.Create("report_probe", map[string]any{
					"dc_id": r.DCID, "ks_id": r.KnowledgeSourceID, "sensed": r.SensedObjectID,
					"condition": r.MachineConditionID, "severity": r.Severity, "belief": r.Belief,
					"explanation": r.Explanation, "recommend": r.Recommendations, "timestamp": r.Timestamp,
					"prognostics": "[]", "suspect": "",
				})
				return err
			})
		}},
		{"fusion.add_report_us", 1e3, func() (float64, error) {
			return timeCalls(15, 64, func(i int) error {
				r := reports[i%len(reports)]
				_, err := diag.AddReportFrom(r.SensedObjectID, r.MachineConditionID, r.DCID, r.Timestamp, r.Belief)
				return err
			})
		}},
	}); err != nil {
		return err
	}
	res.set("proto.frame_bytes", float64(len(frame)+4)) // body plus the length prefix

	// Spool bytes per report: an uplink whose PDME is down keeps everything.
	spoolDir := filepath.Join(dir, "spool")
	up, err := uplink.New(uplink.Config{Addr: "127.0.0.1:1", DCID: "dc-probe", SpoolDir: spoolDir, BackoffMin: time.Hour, BackoffMax: time.Hour})
	if err != nil {
		return fmt.Errorf("probe uplink: %w", err)
	}
	for _, r := range reports[:n] {
		if err := up.Deliver(r); err != nil {
			_ = up.Close()
			return fmt.Errorf("probe uplink: %w", err)
		}
	}
	if err := up.Close(); err != nil {
		return fmt.Errorf("probe uplink: %w", err)
	}
	size, err := dirBytes(spoolDir)
	if err != nil {
		return fmt.Errorf("probe uplink: %w", err)
	}
	res.set("uplink.spool_bytes_per_report", float64(size)/n)
	return nil
}

// probeServingLayers times the read tier's parts on the live console system,
// after the run's checks (the fresh-ranking probe delivers more reports).
func probeServingLayers(res *result, sys *consoleSystem, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 3))
	extra := genReports(rng, 64, "dc-console", sys.machines, allConditions(), virtualEpoch.Add(48*time.Hour))
	rec := newRecorder()
	invalidate := func(i int) error {
		r := extra[i%len(extra)]
		return sys.engine.DeliverTagged(r, r.DCID, 0, 0)
	}
	hot := sys.pairs[0]
	if err := res.runProbes([]probe{
		{"pdme.prioritized_list_us", 1e3, func() (float64, error) {
			return timeCalls(9, 4, func(int) error { sys.engine.PrioritizedList(); return nil })
		}},
		{"serving.views_ranked_fresh_us", 1e3, func() (float64, error) {
			return timeEach(len(extra), invalidate, func(int) error { sys.views.Ranked(); return nil })
		}},
		{"serving.views_ranked_cached_ns", 1, func() (float64, error) {
			return timeCalls(15, 1024, func(int) error { sys.views.Ranked(); return nil })
		}},
		{"serving.http_ranked_us", 1e3, func() (float64, error) {
			return timeCalls(9, 8, func(int) error { rec.serve(sys.handler, sys.ranked); return nil })
		}},
	}); err != nil {
		return err
	}
	res.set("serving.ranked_json_bytes", float64(rec.body.Len()))
	return res.runProbes([]probe{
		{"serving.http_belief_us", 1e3, func() (float64, error) {
			return timeCalls(15, 256, func(int) error { rec.serve(sys.handler, hot.req); return nil })
		}},
	})
}

// probeShardLayers times the shard tier's parts: ring and aggregator
// standalone, the global ranking on the live aggregator.
func probeShardLayers(res *result, sys *fleetSystem) error {
	keys := sys.ring.Keys()
	agg, err := shard.NewAggregator(shard.AggregatorConfig{})
	if err != nil {
		return fmt.Errorf("probe aggregator: %w", err)
	}
	held := sys.agg.GlobalRanked()
	sort.Slice(held, func(i, j int) bool { return held[i].Component < held[j].Component })
	rec := newRecorder()
	return res.runProbes([]probe{
		{"shard.ring_assign_ns", 1, func() (float64, error) {
			return timeCalls(15, 1024, func(i int) error { sys.ring.Assign(keys[i%len(keys)]); return nil })
		}},
		{"shard.agg_deliver_ns", 1, func() (float64, error) {
			return timeCalls(15, 256, func(i int) error {
				it := held[i%len(held)]
				return agg.DeliverSummary(&proto.FusedSummary{
					ShardID: it.Shard, Component: it.Component, Condition: it.Condition, Group: it.Group,
					Belief: it.Belief, Plausibility: it.Plausibility, Unknown: it.Unknown, Reports: it.Reports,
					Reliability: 1, UpdatedAt: virtualEpoch.Add(time.Duration(i) * time.Millisecond),
				}, it.Shard, 1, uint64(i+1))
			})
		}},
		{"shard.agg_ranked_us", 1e3, func() (float64, error) {
			return timeCalls(9, 4, func(int) error { sys.agg.GlobalRanked(); return nil })
		}},
		{"serving.agg_http_ranked_us", 1e3, func() (float64, error) {
			return timeCalls(9, 4, func(int) error { rec.serve(sys.handler, sys.ranked); return nil })
		}},
	})
}
