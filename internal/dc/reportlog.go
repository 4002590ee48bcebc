package dc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/relstore"
	"repro/internal/seglog"
)

// The condition reports a DC issued are its ship-side audit log, kept for a
// DC the paper leaves "disconnected from our labs for months at a time"
// (§4.9). They live in the reports table of the DC database and, with
// Config.ReportLog set, in one seglog file (DESIGN.md, "On-disk logs"): one
// record per report, its body the report's six columns as compact JSON.
// Both keep the newest maxStoredReports reports and drop the oldest first,
// as the uplink spool does. The file also holds the reports dropped since
// it was last compacted, and drops them once it holds as many dropped as
// held, so it never holds more than 2 × maxStoredReports records. Appends
// are not synced; compaction and Close are.

// reportsTable is the DC database's one table: the condition reports the
// DC issued, each with whether the uplink took it. A vibration test's
// features live only in the historian.
const reportsTable = "dc_condition_reports"

// maxStoredReports bounds the reports a DC keeps.
const maxStoredReports = 4096

var reportLogFormat = seglog.Format{Magic: "MPROSDR1", MaxBody: 1 << 16}

// storedReport is one row of the reports table, as its log record holds it.
type storedReport struct {
	Condition string    `json:"condition"`
	Source    string    `json:"source"`
	Severity  float64   `json:"severity"`
	Belief    float64   `json:"belief"`
	IssuedAt  time.Time `json:"issued_at"`
	Delivered bool      `json:"delivered"`
}

func (r storedReport) row() relstore.Row {
	return relstore.Row{
		"condition": r.Condition,
		"source":    r.Source,
		"severity":  r.Severity,
		"belief":    r.Belief,
		"issued_at": r.IssuedAt,
		"delivered": r.Delivered,
	}
}

// reportLog is the DC's bounded report store: the table, and the file when
// there is one. The DC is the table's one writer, so the held rows' ids are
// consecutive and the oldest is the newest's id less held-1.
type reportLog struct {
	db      *relstore.DB
	log     *seglog.Log // nil: the table alone
	held    int         // rows in the table
	dropped int         // records in the file that the table no longer holds
}

// openReportLog creates the reports table in db and, with a path, replays
// the newest maxStoredReports reports of the file there into it.
func openReportLog(db *relstore.DB, path string) (*reportLog, error) {
	if err := db.EnsureTable(relstore.Schema{
		Name: reportsTable,
		Columns: []relstore.Column{
			{Name: "condition", Type: relstore.String, Indexed: true},
			{Name: "source", Type: relstore.String},
			{Name: "severity", Type: relstore.Float},
			{Name: "belief", Type: relstore.Float},
			{Name: "issued_at", Type: relstore.Time},
			{Name: "delivered", Type: relstore.Bool},
		},
	}); err != nil {
		return nil, err
	}
	if path == "" {
		return &reportLog{db: db}, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("dc: create report log directory: %w", err)
	}
	var logged []storedReport
	log, _, err := seglog.Open(path, reportLogFormat, nil, func(r seglog.Record) error {
		var rep storedReport
		if err := json.Unmarshal(r.Body, &rep); err != nil {
			return fmt.Errorf("undecodable report: %w", err)
		}
		logged = append(logged, rep)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dc: report log: %w", err)
	}
	kept := logged[max(0, len(logged)-maxStoredReports):]
	for _, rep := range kept {
		if _, err := db.Insert(reportsTable, rep.row()); err != nil {
			_ = log.Close() // best effort: the insert error is the story
			return nil, err
		}
	}
	return &reportLog{db: db, log: log, held: len(kept), dropped: len(logged) - len(kept)}, nil
}

// add stores a report, dropping the oldest held one beyond the bound.
func (l *reportLog) add(rep storedReport) error {
	if l.log != nil {
		if err := appendReport(l.log, rep); err != nil {
			return err
		}
	}
	id, err := l.db.Insert(reportsTable, rep.row())
	if err != nil {
		return err
	}
	if l.held++; l.held <= maxStoredReports {
		return nil
	}
	if err := l.db.Delete(reportsTable, id-maxStoredReports); err != nil {
		return err
	}
	l.held--
	if l.log == nil {
		return nil
	}
	if l.dropped++; l.dropped < l.held {
		return nil
	}
	// The held reports are the file's newest records.
	if err := l.log.DropBefore(l.log.Next() - uint64(l.held)); err != nil {
		return fmt.Errorf("dc: compact report log: %w", err)
	}
	l.dropped = 0
	return nil
}

func appendReport(w *seglog.Log, rep storedReport) error {
	body, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("dc: encode report: %w", err)
	}
	if err := w.Append(0, 0, body); err != nil {
		return fmt.Errorf("dc: report log: %w", err)
	}
	return nil
}

// close syncs and closes the file, if any.
func (l *reportLog) close() error {
	if l.log == nil {
		return nil
	}
	return l.log.Close()
}
