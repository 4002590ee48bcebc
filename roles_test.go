package mpros

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/pdme"
	"repro/internal/serving"
	"repro/internal/uplink"
)

// roleReport is one §7 report about chiller/1 from dc-1.
func roleReport(at time.Time) *Report {
	return &Report{
		DCID:               "dc-1",
		KnowledgeSourceID:  "ks/dli",
		SensedObjectID:     "chiller/1",
		MachineConditionID: chiller.MotorImbalance.String(),
		Severity:           0.6,
		Belief:             0.8,
		Timestamp:          at,
		Prognostics:        PrognosticVector{{Probability: 0.5, HorizonSeconds: 30 * 24 * 3600}},
	}
}

// sendReport delivers a report to a report server the way a DC does: through
// a spooling uplink, acked end to end.
func sendReport(t *testing.T, addr string, r *Report) {
	t.Helper()
	up, err := uplink.New(uplink.Config{Addr: addr, DCID: "dc-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := up.Deliver(r); err != nil {
		t.Fatal(err)
	}
	if err := up.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRoleStationReopensIdentical: a station with a persistent DC database, a
// disk historian, a journal and a view tier fuses a fault end to end, closes,
// and comes back over the same directories with the same machine id, the
// same prioritized list and browser fused section bit for bit, the DC's
// stored reports, and nothing to replay — the clean close checkpointed. The
// ship model is rebuilt, not reopened: only the journal restores the PDME.
func TestRoleStationReopensIdentical(t *testing.T) {
	dir := t.TempDir()
	health := chaosHealthConfig()
	cfg := StationConfig{
		Seed:              11,
		DBPath:            filepath.Join(dir, "dc.db"),
		HistorianDir:      filepath.Join(dir, "hist"),
		JournalDir:        filepath.Join(dir, "journal"),
		VibrationInterval: time.Hour,
		Heartbeat:         10 * time.Minute,
		Health:            &health,
	}
	s, err := NewStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	views, err := serving.Open(s.PDME, serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(chiller.MotorImbalance, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	want := s.PrioritizedList()
	if len(want) == 0 || want[0].Condition != chiller.MotorImbalance.String() {
		t.Fatalf("station fused nothing convincing: %+v", want)
	}
	if got := views.Ranked().Items(); !reflect.DeepEqual(got, want) {
		t.Errorf("view tier serves %+v, engine says %+v", got, want)
	}
	machine, received, fleet := s.Machine, s.PDME.ReceivedReports(), s.PDME.Health().Snapshot()
	fused := fusedSection(t, s)
	stored := s.DC.StoredReports("")
	if len(stored) == 0 {
		t.Fatal("DC stored no reports")
	}
	views.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Machine != machine {
		t.Errorf("machine id %v after reopen, was %v", s2.Machine, machine)
	}
	if !s2.Recovery.CheckpointLoaded || s2.Recovery.ReportsReplayed != 0 || s2.Recovery.SkippedRecords != 0 {
		t.Errorf("recovery after a clean close: %+v", s2.Recovery)
	}
	if got := s2.PDME.ReceivedReports(); got != received {
		t.Errorf("received %d after reopen, was %d", got, received)
	}
	if got := s2.PrioritizedList(); !reflect.DeepEqual(got, want) {
		t.Errorf("prioritized list after reopen\n got %+v\nwant %+v", got, want)
	}
	if got := s2.PDME.Health().Snapshot(); !reflect.DeepEqual(got, fleet) {
		t.Errorf("fleet health after reopen\n got %+v\nwant %+v", got, fleet)
	}
	if got := fusedSection(t, s2); got != fused {
		t.Errorf("browser fused section after reopen\n got %s\nwant %s", got, fused)
	}
	if got := s2.DC.StoredReports(""); !reflect.DeepEqual(got, stored) {
		t.Errorf("DC stored reports after reopen: %d, had %d", len(got), len(stored))
	}
}

// fusedSection is the browser's fused predictions: what knowledge fusion
// holds for the station's machine. The report rows above it come from the
// OOSM, which a restart rebuilds empty.
func fusedSection(t *testing.T, s *Station) string {
	t.Helper()
	view, err := s.Browser()
	if err != nil {
		t.Fatal(err)
	}
	_, fused, ok := strings.Cut(view, "--- fused predictions")
	if !ok || strings.Contains(fused, "(no fused conclusions)") {
		t.Fatalf("browser shows no fused predictions:\n%s", view)
	}
	return fused
}

// TestRoleShardAndAggregatorReopenIdentical: one report travels DC uplink →
// shard node → forwarder → aggregator and is readable on the aggregator's
// handler; then both roles are closed and rebuilt — the shard over its
// journal and forwarding spool (Resync reads fusion state, which the
// checkpoint restores), the aggregator from nothing on the same address —
// and the shard's resync alone restores the aggregator's global list to what
// it was.
func TestRoleShardAndAggregatorReopenIdentical(t *testing.T) {
	dir := t.TempDir()
	agg, err := OpenAggregator(AggregatorConfig{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	openShard := func() *Node {
		t.Helper()
		n, err := OpenNode("", nil, 0, nil, pdme.JournalOptions{Dir: filepath.Join(dir, "journal")},
			&ShardForwarderConfig{
				ShardID:        "shard-1",
				AggregatorAddr: agg.Addr,
				SpoolDir:       filepath.Join(dir, "fwd"),
				BackoffMin:     5 * time.Millisecond,
				BackoffMax:     50 * time.Millisecond,
			})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := openShard()
	if n.Resynced != 0 {
		t.Errorf("fresh shard resynced %d conclusions", n.Resynced)
	}
	addr, err := n.Serve("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 4, 0, 0, 0, time.UTC)
	sendReport(t, addr, roleReport(at))
	if err := n.Forwarder.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	shardList := n.PDME.PrioritizedList()
	global := agg.Aggregator.GlobalRanked()
	if len(shardList) != 1 || len(global) != 1 {
		t.Fatalf("shard holds %d pairs, aggregator %d, want 1 and 1", len(shardList), len(global))
	}
	if global[0].Belief != shardList[0].Belief || global[0].Shard != "shard-1" || !global[0].UpdatedAt.Equal(at) {
		t.Errorf("aggregator row %+v does not mirror shard row %+v", global[0], shardList[0])
	}
	rec := httptest.NewRecorder()
	agg.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ranked", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "chiller/1") {
		t.Errorf("aggregator /ranked: %d %s", rec.Code, rec.Body)
	}
	// The liveness beacon is the node's own duty, not a side effect of a
	// status block somebody asked to see: a shard that prints nothing is heard
	// from all the same, at its own registry's time.
	if seen := agg.Aggregator.Health().Snapshot(); len(seen) != 1 || !seen[0].LastHeartbeat.IsZero() {
		t.Fatalf("aggregator's registry before any heartbeat: %+v", seen)
	}
	if err := n.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if err := n.Forwarder.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if seen := agg.Aggregator.Health().Snapshot(); len(seen) != 1 || seen[0].DCID != "shard-1" ||
		seen[0].State.String() != "alive" || !seen[0].LastHeartbeat.Equal(n.PDME.Health().Now()) {
		t.Errorf("aggregator's registry after the shard's heartbeat (sent at %v): %+v", n.PDME.Health().Now(), seen)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}

	if agg, err = OpenAggregator(AggregatorConfig{}, agg.Addr); err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	n = openShard()
	defer n.Close()
	if !n.Recovery.CheckpointLoaded || n.Resynced != 1 {
		t.Errorf("reopened shard: recovery %+v, resynced %d", n.Recovery, n.Resynced)
	}
	if got := n.PDME.PrioritizedList(); !reflect.DeepEqual(got, shardList) {
		t.Errorf("shard list after reopen\n got %+v\nwant %+v", got, shardList)
	}
	if err := n.Forwarder.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := agg.Aggregator.GlobalRanked(); !reflect.DeepEqual(got, global) {
		t.Errorf("global list after both roles reopened\n got %+v\nwant %+v", got, global)
	}
}

// openFiles counts this process's open descriptors.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd on this platform:", err)
	}
	return len(fds)
}

// TestRoleConstructorFailureReleasesEverything makes each late step of the
// constructors fail over directories that already hold state (so every
// earlier step has files to open) and requires the descriptor count back
// where it started and the same directories openable afterwards.
func TestRoleConstructorFailureReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	hist, journal := filepath.Join(dir, "hist"), filepath.Join(dir, "journal")
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(journalDir, spoolDir string) (*Node, error) {
		var forward *ShardForwarderConfig
		if spoolDir != "" {
			forward = &ShardForwarderConfig{ShardID: "shard-1", AggregatorAddr: "127.0.0.1:1", SpoolDir: spoolDir}
		}
		return OpenNode(hist, nil, 0, nil, pdme.JournalOptions{Dir: journalDir}, forward)
	}
	// Seed the directories through a healthy node.
	n, err := open(journal, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PDME.Deliver(roleReport(time.Date(1998, 8, 1, 4, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	start := openFiles(t)
	// More than at the start is a leak; fewer only means an earlier test's
	// connection finished closing meanwhile.
	settled := func(step string) {
		t.Helper()
		if got := openFiles(t); got > start {
			t.Errorf("%s: %d descriptors open, %d before", step, got, start)
		}
	}
	if _, err := open(notADir, ""); err == nil {
		t.Fatal("journal dir that is a regular file accepted")
	}
	settled("journal dir is a regular file")
	if _, err := open(journal, filepath.Join(notADir, "spool")); err == nil {
		t.Fatal("forward spool under a regular file accepted")
	}
	settled("forward spool dir unwritable")
	if _, err := OpenAggregator(AggregatorConfig{}, taken.Addr().String()); err == nil {
		t.Fatal("aggregator bound a taken address")
	}
	settled("aggregator listen address taken")
	n, err = open(journal, "")
	if err != nil {
		t.Fatalf("directories not openable after the failed constructions: %v", err)
	}
	if _, err := n.Serve(taken.Addr().String(), 0); err == nil {
		t.Error("node bound a taken address")
	}
	if got := n.PDME.ReceivedReports(); got != 1 {
		t.Errorf("reopened node recovered %d reports, want 1", got)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	settled("node listen address taken, then Close")
}
