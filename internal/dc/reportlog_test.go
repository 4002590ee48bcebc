package dc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
	"repro/internal/seglog"
)

// newLoggingDC builds a DC over a healthy plant that logs its reports to path.
func newLoggingDC(t *testing.T, path string) (*DC, error) {
	t.Helper()
	plant, err := chiller.New(chiller.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("dc-1", "chiller/1")
	cfg.ReportLog = path
	return New(cfg, plant, nil, &collector{})
}

// emitNumbered emits reports first..last-1, each carrying its number as its
// severity and issued that many minutes after the DC's start.
func emitNumbered(t *testing.T, d *DC, first, last int) {
	t.Helper()
	for i := first; i < last; i++ {
		r := &proto.Report{DCID: "dc-1", KnowledgeSourceID: "ks/dli", SensedObjectID: "chiller/1",
			MachineConditionID: "motor imbalance", Severity: float64(i), Belief: 0.5}
		if err := d.emit(r, d.cfg.Start.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
}

// fileRecords counts the records in the report log at path.
func fileRecords(t *testing.T, path string) int {
	t.Helper()
	n := 0
	if _, err := seglog.Scan(path, reportLogFormat, func(seglog.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReportLogKeepsNewest: five bounds' worth of reports leave the ring
// holding exactly the newest maxStoredReports in order, the file never
// holds more than twice the bound, and a reopen reads the same reports back.
func TestReportLogKeepsNewest(t *testing.T) {
	const total = 5 * maxStoredReports
	path := filepath.Join(t.TempDir(), "reports.log")
	d, err := newLoggingDC(t, path)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i := 1; i <= total; i++ {
		emitNumbered(t, d, i-1, i)
		inFile := len(d.reports.ring) + d.reports.dropped
		if inFile > 2*maxStoredReports {
			t.Fatalf("after %d reports the file holds %d records, bound %d", i, inFile, 2*maxStoredReports)
		}
		peak = max(peak, inFile)
		if i%(maxStoredReports/4) == 0 || inFile == 2*maxStoredReports-1 {
			if got := fileRecords(t, path); got != inFile {
				t.Fatalf("after %d reports the file holds %d records, the DC counts %d", i, got, inFile)
			}
		}
	}
	t.Logf("the file peaked at %d records", peak)
	rows := d.StoredReports("")
	if len(rows) != maxStoredReports {
		t.Fatalf("ring holds %d reports, want %d", len(rows), maxStoredReports)
	}
	for i, r := range rows {
		if want := float64(total - maxStoredReports + i); r.Severity != want {
			t.Fatalf("report %d is report %v, want %v", i, r.Severity, want)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() (*DC, []StoredReport) {
		t.Helper()
		d, err := newLoggingDC(t, path)
		if err != nil {
			t.Fatal(err)
		}
		return d, d.StoredReports("")
	}
	d, again := reopen()
	if !reflect.DeepEqual(again, rows) {
		t.Fatalf("reopen holds %d reports, not the %d stored", len(again), len(rows))
	}
	// The reopened DC goes on dropping its oldest reports, and a reopen of a
	// file that still holds dropped ones replays only the newest.
	emitNumbered(t, d, total, total+maxStoredReports/2)
	if rows = d.StoredReports(""); len(rows) != maxStoredReports || rows[0].Severity != float64(total-maxStoredReports/2) {
		t.Fatalf("after more reports the ring holds %d from %v", len(rows), rows[0].Severity)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, again = reopen()
	defer d.Close()
	if !reflect.DeepEqual(again, rows) {
		t.Fatalf("reopen of a file with dropped reports holds %d reports, not the %d stored", len(again), len(rows))
	}
}

// TestReportLogTornTail: a final record a crash cut short loses that report
// only.
func TestReportLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reports.log")
	d, err := newLoggingDC(t, path)
	if err != nil {
		t.Fatal(err)
	}
	emitNumbered(t, d, 0, 3)
	rows := d.StoredReports("")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	d2, err := newLoggingDC(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.StoredReports(""); !reflect.DeepEqual(got, rows[:2]) {
		t.Fatalf("after a torn tail the DC holds %v, want the first two of %v", got, rows)
	}
	// The repaired file takes the next report, and a reopen sees it.
	emitNumbered(t, d2, 2, 3)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := newLoggingDC(t, path)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := d3.StoredReports(""); !reflect.DeepEqual(got, rows) {
		t.Fatalf("after repair and one more report the DC holds %v, want %v", got, rows)
	}
}

// TestReportLogRefusesParentFormat: a DC database file of the format before
// the report log (relstore's table log) is refused untouched, with an error
// naming the file and the format the DC wants.
func TestReportLogRefusesParentFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dc.db")
	old := seglog.Format{Magic: "MPROSRS1", MaxBody: 1 << 24}
	if err := seglog.WriteFile(path, old, nil, func(l *seglog.Log) error {
		return l.Append(0, 0, []byte(`{"op":"create_table","table":"dc_condition_reports"}`))
	}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newLoggingDC(t, path)
	if err == nil {
		d.Close()
		t.Fatal("a relstore table log was taken for a report log")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), reportLogFormat.Magic) {
		t.Errorf("refusal %q does not name the file and %s", err, reportLogFormat.Magic)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Error("the refused file was modified")
	}
}

// discard is a sink that keeps nothing, so a heap measurement sees only what
// the DC holds.
type discard struct{}

func (discard) Deliver(*proto.Report) error { return nil }

// TestStoredReportsHeapBound: a DC holding the newest maxStoredReports
// reports holds each in at most 128 B of heap. A report is a fixed-size
// value whose names are the knowledge sources' own strings, so what remains
// is the ring's growth slack.
func TestStoredReportsHeapBound(t *testing.T) {
	const maxBytesPerReport = 128
	plant, err := chiller.New(chiller.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(DefaultConfig("dc-1", "chiller/1"), plant, nil, discard{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	emitNumbered(t, d, 0, 2*maxStoredReports)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perReport := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / maxStoredReports
	t.Logf("%.0f B of heap per held report", perReport)
	if perReport > maxBytesPerReport {
		t.Errorf("%.0f B of heap per held report, want at most %d", perReport, maxBytesPerReport)
	}
}
