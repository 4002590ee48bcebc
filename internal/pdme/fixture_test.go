package pdme_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/journal"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/serving"
	"repro/internal/testkit"
)

// Journal fixtures: a station's WAL and checkpoint as a release wrote them,
// committed under testdata/journals/<name>/. A format change adds a fixture
// beside the old ones.

// newStation is the fixtures' engine: three failure groups of two conditions
// each.
func newStation(t *testing.T) *pdme.PDME {
	t.Helper()
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdme.New(model, fusion.Groups{
		"electrical": {"motor rotor bar problem", "stator electrical unbalance"},
		"structural": {"motor imbalance", "motor misalignment"},
		"lubricant":  {"oil whirl", "motor bearing outer race defect"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// copyJournal copies a journal directory's two files into a new directory
// and returns it.
func copyJournal(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range []string{"wal.mprosj", "checkpoint.mprosc"} {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// stationTraffic is the v2 fixture's seeded schedule: two DCs, three
// knowledge sources, three machines, every condition, a prognostic vector on
// every third report, some reports late, a heartbeat every tenth.
type stationTraffic struct {
	rng  *rand.Rand
	n    int
	seqs map[string]uint64
}

func (s *stationTraffic) deliver(t *testing.T, p *pdme.PDME, n int) {
	t.Helper()
	t0 := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)
	conds := []string{"motor rotor bar problem", "stator electrical unbalance", "motor imbalance", "motor misalignment", "oil whirl", "motor bearing outer race defect"}
	for range n {
		dc := fmt.Sprintf("dc-%d", 1+s.rng.Intn(2))
		at := t0.Add(time.Duration(s.n-s.rng.Intn(5)) * 10 * time.Minute)
		r := &proto.Report{
			DCID: dc, KnowledgeSourceID: []string{"ks/dli", "ks/fuzzy", "ks/wnn"}[s.rng.Intn(3)],
			SensedObjectID: fmt.Sprintf("chiller/%d", 1+s.rng.Intn(3)), MachineConditionID: conds[s.rng.Intn(len(conds))],
			Severity: float64(s.rng.Intn(100)) / 100, Belief: float64(1+s.rng.Intn(99)) / 100, Timestamp: at,
			Explanation: fmt.Sprintf("finding %d", s.n),
		}
		if s.n%3 == 0 {
			p1 := float64(1+s.rng.Intn(50)) / 100
			r.Prognostics = proto.PrognosticVector{{Probability: p1, HorizonSeconds: float64(1+s.rng.Intn(30)) * 86400},
				{Probability: p1 + (1-p1)*float64(s.rng.Intn(100))/100, HorizonSeconds: 60 * 86400}}
		}
		s.seqs[dc]++
		if err := p.DeliverTagged(r, dc, 5, s.seqs[dc]); err != nil {
			t.Fatal(err)
		}
		if s.n%10 == 9 {
			if err := p.ObserveHeartbeat(&proto.Heartbeat{DCID: dc, SentAt: at, Incarnation: 5, SpoolDepth: s.n % 4}); err != nil {
				t.Fatal(err)
			}
		}
		s.n++
	}
}

// ranked is the /ranked body a station's read tier serves.
func ranked(t *testing.T, p *pdme.PDME) []byte {
	t.Helper()
	v, err := serving.Open(p, serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rec := httptest.NewRecorder()
	serving.NewHandler(v).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ranked", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/ranked: %d %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestStationJournalV2 writes the format-2 station fixture from its seeded
// schedule — a checkpoint over the first 60 reports, a WAL tail of 20 more
// and a 21st torn off mid-append, as a kill leaves it — and holds the bytes
// to the committed ones (-update rewrites them). It then recovers from the
// committed files and holds the RecoveryStats and the /ranked body to the
// ones committed beside them; the recovered engine ranks as the one that
// wrote the journal did before the torn append. The committed checkpoint
// decodes back to its own bytes, so no field is lost to a renamed JSON name.
func TestStationJournalV2(t *testing.T) {
	const dir = "testdata/journals/station-v2"
	scratch := t.TempDir()
	writer := newStation(t)
	if _, err := writer.OpenJournal(pdme.JournalOptions{Dir: scratch, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	traffic := &stationTraffic{rng: rand.New(rand.NewSource(2)), seqs: map[string]uint64{}}
	traffic.deliver(t, writer, 60)
	if err := writer.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	traffic.deliver(t, writer, 20)
	want := writer.PrioritizedList()
	wal, err := os.ReadFile(filepath.Join(scratch, "wal.mprosj"))
	if err != nil {
		t.Fatal(err)
	}
	traffic.deliver(t, writer, 1)
	torn, err := os.ReadFile(filepath.Join(scratch, "wal.mprosj"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(scratch, "checkpoint.mprosc"))
	if err != nil {
		t.Fatal(err)
	}
	// The kill lands 9 bytes before the last append's end.
	testkit.Bytes(t, filepath.Join(dir, "wal.mprosj"), torn[:len(torn)-9])
	testkit.Bytes(t, filepath.Join(dir, "checkpoint.mprosc"), ckpt)
	if len(torn)-9 <= len(wal) {
		t.Fatal("the torn append tore into the record before it")
	}

	// Every field of the checkpoint is read back under the name it was
	// written with.
	jr, rec, err := journal.Open(copyJournal(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if again, err := pdme.RemarshalCheckpoint(rec.Checkpoint); err != nil || !bytes.Equal(again, rec.Checkpoint) {
		t.Errorf("the committed checkpoint does not decode back to its own bytes (%v):\n%s\n%s", err, rec.Checkpoint, again)
	}

	recovered := newStation(t)
	stats, err := recovered.OpenJournal(pdme.JournalOptions{Dir: copyJournal(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	testkit.Lines(t, filepath.Join(dir, "recovery.txt"), []string{fmt.Sprintf("%+v", stats)})
	testkit.Bytes(t, filepath.Join(dir, "ranked.json"), ranked(t, recovered))
	if got := recovered.PrioritizedList(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered ranking differs from the writer's before the torn append:\n got %+v\nwant %+v", got, want)
	}
}

// TestStationJournalV1Refused: a journal the previous release wrote, whose
// checkpoint carries no format and holds running fusion masses, is refused by
// name and format — never read as an empty fusion state — and nothing
// changes, on disk or in the engine.
func TestStationJournalV1Refused(t *testing.T) {
	const fixture = "testdata/journals/station-v1"
	dir := copyJournal(t, fixture)
	p := newStation(t)
	_, err := p.OpenJournal(pdme.JournalOptions{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "format 0") {
		t.Fatalf("error %v, want a refusal naming %s and format 0", err, dir)
	}
	if open, _, _, _ := p.JournalInfo(); open || p.ReceivedReports() != 0 || len(p.PrioritizedList()) != 0 {
		t.Errorf("the refusing engine kept something: journal open %v, %d received, %d conclusions", open, p.ReceivedReports(), len(p.PrioritizedList()))
	}
	for _, name := range []string{"wal.mprosj", "checkpoint.mprosc"} {
		was, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if now, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(now, was) {
			t.Errorf("%s changed under the refusal (%v)", name, err)
		}
	}
}
