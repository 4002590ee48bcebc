package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric. Bound is the regression bound of an
// end-to-end metric (share of the parent's median). Home and Moves document
// a per-layer metric: the workload whose traced run measures it (it reads 0
// elsewhere, because the layer is not on that workload's path) and the
// end-to-end metric it should move there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Home   string
	Moves  string
}

// Workload names.
const (
	wlDCTick  = "dc_tick"
	wlIngest  = "ingest_durable"
	wlConsole = "console_read"
	wlFleet   = "fleet_e2e"
)

// End-to-end metrics. Every workload reports every one; what an "op" is on
// each workload is in README.md (tick, report, read, fleet tick).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "kB", Better: "lower", Bound: 0.15},
	{Name: "state_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// Per-layer metrics, measured by the traced run.
var perLayer = []metricDef{
	// Every workload.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Home: "all", Moves: "-"},
	{Name: "tail.p95_us", Unit: "us", Better: "lower", Home: "all", Moves: "op_p50_us"},
	{Name: "tail.p99_us", Unit: "us", Better: "lower", Home: "all", Moves: "op_p50_us"},
	{Name: "gc.cpu_frac", Unit: "ratio", Better: "lower", Home: "all", Moves: "cpu_us_per_op"},
	{Name: "host.speed_factor", Unit: "ratio", Better: "lower", Home: "all", Moves: "-"},

	// dc / dsp / vibration / wavelet / wnn / fuzzy / sbfr / relstore / historian.
	{Name: "dc.vib_test_ms", Unit: "ms", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "dc.process_scan_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "dc.sbfr_scan_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "dc.self_ms", Unit: "ms", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "dc.reports_per_tick", Unit: "count", Better: "lower", Home: wlDCTick, Moves: "-"},
	{Name: "dc.mallocs_per_tick", Unit: "count", Better: "lower", Home: wlDCTick, Moves: "alloc_kb_per_op"},
	{Name: "dsp.analyze_frame_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "vibration.extract_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "vibration.diagnose_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "wavelet.decompose_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "wnn.classify_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "fuzzy.diagnose_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "sbfr.cycle_ns", Unit: "ns", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "relstore.insert_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},
	{Name: "historian.append_us", Unit: "us", Better: "lower", Home: wlDCTick, Moves: "op_p50_us"},

	// proto / uplink / journal / oosm / fusion / pdme / health.
	{Name: "proto.encode_ns", Unit: "ns", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "proto.frame_bytes", Unit: "B", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "proto.ack_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "ops_per_s"},
	{Name: "proto.dedup_mark_ns", Unit: "ns", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "uplink.deliver_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "ops_per_s"},
	{Name: "uplink.spool_bytes_per_report", Unit: "B", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "journal.append_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "ops_per_s"},
	{Name: "journal.append_disk_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "ops_per_s"},
	{Name: "journal.bytes_per_report", Unit: "B", Better: "lower", Home: wlIngest, Moves: "ops_per_s"},
	{Name: "oosm.create_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "fusion.add_report_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "pdme.accept_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "ops_per_s"},
	{Name: "pdme.accept_nojournal_us", Unit: "us", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "pdme.checkpoint_ms", Unit: "ms", Better: "lower", Home: wlIngest, Moves: "ops_per_s"},
	{Name: "pdme.recover_ms", Unit: "ms", Better: "lower", Home: wlIngest, Moves: "setup_s"},
	{Name: "io.syscw_per_report", Unit: "count", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},
	{Name: "io.wchar_per_report", Unit: "B", Better: "lower", Home: wlIngest, Moves: "cpu_us_per_op"},

	// serving.
	{Name: "read.belief_p50_us", Unit: "us", Better: "lower", Home: wlConsole, Moves: "op_p50_us"},
	{Name: "read.ranked_p50_us", Unit: "us", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "read.ranked_p99_us", Unit: "us", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "write.lag_ms", Unit: "ms", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "serving.hit_ratio", Unit: "ratio", Better: "higher", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "serving.invalidations_per_write", Unit: "count", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "serving.views_ranked_cached_ns", Unit: "ns", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "serving.views_ranked_fresh_us", Unit: "us", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "serving.http_ranked_us", Unit: "us", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "serving.http_belief_us", Unit: "us", Better: "lower", Home: wlConsole, Moves: "op_p50_us"},
	{Name: "serving.ranked_json_bytes", Unit: "B", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},
	{Name: "pdme.prioritized_list_us", Unit: "us", Better: "lower", Home: wlConsole, Moves: "ops_per_s"},

	// shard.
	{Name: "deliver.p50_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "deliver.p95_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "deliver.p99_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "fresh.p95_ms", Unit: "ms", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "fresh.p99_ms", Unit: "ms", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "read.agg_p50_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "shard.ring_assign_ns", Unit: "ns", Better: "lower", Home: wlFleet, Moves: "setup_s"},
	{Name: "shard.router_deliver_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "shard.forward_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "shard.agg_deliver_ns", Unit: "ns", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "shard.agg_ranked_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "shard.agg_pairs", Unit: "count", Better: "lower", Home: wlFleet, Moves: "-"},
	{Name: "serving.agg_http_ranked_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "stage.dc_to_shard_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "stage.shard_to_agg_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.acquire_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.dc_compute_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.router_spool_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.shard_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.forward_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.aggregate_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.read_us", Unit: "us", Better: "lower", Home: wlFleet, Moves: "op_p50_us"},
	{Name: "budget.sum_over_fresh", Unit: "ratio", Better: "higher", Home: wlFleet, Moves: "-"},
}

// result is what one run of one workload produces.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	// CheckErrors lists every output check that failed; empty means correct.
	CheckErrors []string
	// Values holds the run's metrics by name: the end-to-end set on an
	// untraced run, the per-layer set on a traced one.
	Values map[string]float64
	// Samples is the sample count behind each percentile metric.
	Samples map[string]uint64
	// Budget is fleet_e2e's stage table (traced run only).
	Budget []budgetRow
	// Raw is a line for the human reader: the time-based end-to-end
	// metrics before they were scaled to reference speed.
	Raw string
}

type budgetRow struct {
	Stage string
	P50us float64
	Share float64
}

func newResult(workload string) *result {
	return &result{Workload: workload, Values: map[string]float64{}, Samples: map[string]uint64{}}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// setHist records a percentile of h under name, scaled from nanoseconds by
// div, and remembers the sample count.
func (r *result) setHist(name string, h *histogram, q, div float64) {
	r.Values[name] = h.quantile(q) / div
	r.Samples[name] = h.count
}

func (r *result) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.CheckErrors = append(r.CheckErrors, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.CheckErrors) == 0 }

// wireMetric is one entry of the result line's metrics object.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver contract: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// line renders r against the metric set defs: every metric of the set is
// present; one the run did not measure reads 0 (per-layer metrics of layers
// that are not on the workload's path).
func (r *result) line(defs []metricDef) resultLine {
	out := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]wireMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = wireMetric{Value: r.Values[d.Name], Unit: d.Unit}
	}
	return out
}

// printTable writes the run's metrics for a human, sample counts included.
func (r *result) printTable(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", d.Name, v, d.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			fmt.Fprintf(w, " (n=%d)", n)
		}
		fmt.Fprintln(w)
	}
	if r.Raw != "" {
		fmt.Fprintf(w, "  %s\n", r.Raw)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintln(w, "  stage budget (share of op_p50_us):")
		for _, b := range r.Budget {
			fmt.Fprintf(w, "    %-28s %10.1f us  %5.1f %%\n", b.Stage, b.P50us, 100*b.Share)
		}
	}
	errs := append([]string(nil), r.CheckErrors...)
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
}

func writeResultLine(w io.Writer, l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("encode result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
