package pdme

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/relstore"
)

// TestFuseRefusalIsTheDeliverysAnswer: knowledge fusion runs inside the
// model's Create, where an event handler cannot fail the mutation — but what
// it answers is still the delivery's. With the historian gone the severity
// sample cannot be recorded, so the report is refused: told to its sender,
// not counted, its tag not marked (a resend is not a duplicate).
func TestFuseRefusalIsTheDeliverysAnswer(t *testing.T) {
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	hist, err := historian.Open(historian.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWithHistorian(model, testGroups(), hist)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	r := report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.6, at, nil)
	if err := p.DeliverTagged(r, "dc-1", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.DeliverTagged(r, "dc-1", 1, 2); err == nil {
		t.Fatal("a report knowledge fusion could not fuse was acknowledged")
	}
	if got, fused := p.ReceivedReports(), p.diag.ReportCount(); got != 1 || fused != 1 {
		t.Fatalf("%d received, %d fused; want the one fused report in both", got, fused)
	}
	if p.dedupHandle().Seen("dc-1", 1, 2) || !p.dedupHandle().Seen("dc-1", 1, 1) {
		t.Fatal("the refused report's tag was marked delivered (or the fused one's was not)")
	}
	p.mu.Lock()
	parked := len(p.posting)
	p.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d refusals still parked after their deliveries returned", parked)
	}
}

// TestEveryReceivedReportIsFused: one DC whose suite keeps alternating over a
// failure group's members (serving's TestUnreadTierStaysBounded load) never
// has a report acknowledged and not fused.
func TestEveryReceivedReportIsFused(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	machines := []string{"m1", "m2", "m3", "m4"}
	conditions := []string{"motor imbalance", "motor misalignment", "oil whirl"}
	const n = 10000
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < n; i++ {
		r := report("ks/dli", machines[i%len(machines)], conditions[i%len(conditions)], 0.5, 0.3+0.6*rng.Float64(),
			at.Add(time.Duration(i)*time.Second), nil)
		if err := p.Deliver(r); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if got, fused := p.ReceivedReports(), p.diag.ReportCount(); got != n || fused != n {
		t.Fatalf("%d received, %d fused, want %d of each", got, fused, n)
	}
}

// TestConcurrentSendersPostOneCoherentConclusion: eight connections report on
// the same pairs at once. At quiescence each pair has exactly one conclusion
// object — whether the senders' first reports raced to create it or found it
// there — and it carries the engine's state: the belief, plausibility, unknown
// and updated_at of the newest fold, not one fold's belief beside another's
// plausibility.
func TestConcurrentSendersPostOneCoherentConclusion(t *testing.T) {
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	// One condition per failure group per machine: a conclusion is posted when
	// its own pair is reported on, so a sibling's report would move the
	// engine's state for a pair without reposting it.
	pairs := [][2]string{
		{"motor/1", "motor imbalance"}, {"motor/1", "oil whirl"},
		{"motor/2", "motor misalignment"}, {"motor/2", "stator electrical unbalance"},
	}
	const senders, perSender, rounds = 8, 12, 20
	for _, precreated := range []bool{false, true} {
		t.Run(fmt.Sprintf("precreated=%v", precreated), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				p := newTestPDME(t)
				if precreated {
					for _, pair := range pairs {
						if err := p.Deliver(report("ks/dli", pair[0], pair[1], 0.5, 0.4, at, nil)); err != nil {
							t.Fatal(err)
						}
					}
				}
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perSender; i++ {
							pair := pairs[(s+i)%len(pairs)]
							// Senders' clocks interleave, so late reports happen.
							r := report("ks/dli", pair[0], pair[1], 0.5, 0.3+0.05*float64(s),
								at.Add(time.Duration(i*senders+(s*5)%senders)*time.Second), nil)
							r.DCID = fmt.Sprintf("dc-%d", s)
							if err := p.DeliverTagged(r, r.DCID, 1, uint64(i+1)); err != nil {
								t.Error(err)
							}
						}
					}()
				}
				wg.Wait()
				ids, err := p.Model().Instances(ConclusionClass)
				if err != nil || len(ids) != len(pairs) {
					t.Fatalf("round %d: %d conclusion objects for %d pairs (%v)", round, len(ids), len(pairs), err)
				}
				for _, id := range ids {
					props, err := p.Model().Get(id)
					if err != nil {
						t.Fatal(err)
					}
					component, condition := props["component"].(string), props["condition"].(string)
					cs, err := p.ConditionSnapshot(component, condition)
					if err != nil {
						t.Fatal(err)
					}
					for name, want := range map[string]float64{"belief": cs.Belief, "plausibility": cs.Plausibility, "unknown": cs.Unknown} {
						if got := props[name].(float64); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("round %d: %s/%s: conclusion %s %v, engine %v", round, component, condition, name, got, want)
						}
					}
					if got := props["updated_at"].(time.Time); cs.UpdatedAt.IsZero() || !got.Equal(cs.UpdatedAt) {
						t.Errorf("round %d: %s/%s: conclusion updated_at %v, engine %v", round, component, condition, got, cs.UpdatedAt)
					}
				}
				// Every sender is one DC's knowledge source, so the repository
				// keeps one report object per pair and sender.
				if n := countInstances(t, p.Model(), ReportClass); n != len(pairs)*senders {
					t.Errorf("round %d: %d report objects for %d pairs from %d senders", round, n, len(pairs), senders)
				}
				p.Close()
				if t.Failed() {
					return
				}
			}
		})
	}
}
