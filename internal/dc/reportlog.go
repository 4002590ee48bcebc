package dc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/seglog"
)

// The condition reports a DC issued are its ship-side audit log, kept for a
// DC the paper leaves "disconnected from our labs for months at a time"
// (§4.9). They live in a ring in memory and, with Config.ReportLog set, in
// one seglog file (DESIGN.md, "On-disk logs"): one record per report, its
// body the report's six fields as compact JSON. Both keep the newest
// maxStoredReports reports and drop the oldest first, as the uplink spool
// does. The file also holds the reports dropped since it was last
// compacted, and drops them once it holds as many dropped as held, so it
// never holds more than 2 × maxStoredReports records. Appends are not
// synced; compaction and Close are.

// maxStoredReports bounds the reports a DC keeps.
const maxStoredReports = 4096

var reportLogFormat = seglog.Format{Magic: "MPROSDR1", MaxBody: 1 << 16}

// StoredReport is one condition report a DC issued, with whether the uplink
// took it, as its log record holds it.
type StoredReport struct {
	Condition string    `json:"condition"`
	Source    string    `json:"source"`
	Severity  float64   `json:"severity"`
	Belief    float64   `json:"belief"`
	IssuedAt  time.Time `json:"issued_at"`
	Delivered bool      `json:"delivered"`
}

// reportLog is the DC's bounded report store: the ring, and the file when
// there is one. The ring grows by append up to the bound (most DCs never
// hold that many), then overwrites its oldest report.
type reportLog struct {
	ring    []StoredReport
	oldest  int         // index of the oldest held report once the ring is full
	log     *seglog.Log // nil: the ring alone
	dropped int         // records in the file that the ring no longer holds
}

// openReportLog returns an empty store or, with a path, one holding the
// newest maxStoredReports reports of the file there.
func openReportLog(path string) (*reportLog, error) {
	l := &reportLog{}
	if path == "" {
		return l, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("dc: create report log directory: %w", err)
	}
	log, _, err := seglog.Open(path, reportLogFormat, nil, func(r seglog.Record) error {
		var rep StoredReport
		if err := json.Unmarshal(r.Body, &rep); err != nil {
			return fmt.Errorf("undecodable report: %w", err)
		}
		if l.push(rep) {
			l.dropped++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dc: report log: %w", err)
	}
	l.log = log
	return l, nil
}

// push holds a report in the ring and reports whether that dropped the
// oldest one.
func (l *reportLog) push(rep StoredReport) bool {
	if len(l.ring) < maxStoredReports {
		l.ring = append(l.ring, rep)
		return false
	}
	l.ring[l.oldest] = rep
	l.oldest = (l.oldest + 1) % maxStoredReports
	return true
}

// add stores a report, dropping the oldest held one beyond the bound.
func (l *reportLog) add(rep StoredReport) error {
	if l.log == nil {
		l.push(rep)
		return nil
	}
	if err := appendReport(l.log, rep); err != nil {
		return err
	}
	if !l.push(rep) {
		return nil
	}
	if l.dropped++; l.dropped < len(l.ring) {
		return nil
	}
	// The held reports are the file's newest records.
	if err := l.log.DropBefore(l.log.Next() - uint64(len(l.ring))); err != nil {
		return fmt.Errorf("dc: compact report log: %w", err)
	}
	l.dropped = 0
	return nil
}

func appendReport(w *seglog.Log, rep StoredReport) error {
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
