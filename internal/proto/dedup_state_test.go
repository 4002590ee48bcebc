package proto

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/testkit"
)

// TestDedupStateRoundtrip: State → JSON → Restore reproduces the window
// exactly — same suppression decisions, same re-exported snapshot — which
// is what lets a recovered PDME keep rejecting spool replays of reports it
// fused before a crash.
func TestDedupStateRoundtrip(t *testing.T) {
	d := NewDedup(8)
	for seq := uint64(1); seq <= 20; seq++ {
		d.Mark("dc-1", 41, seq)
	}
	d.Mark("dc-2", 7, 3)
	d.Mark("dc-2", 7, 5)
	if !d.Seen("dc-1", 41, 2) { // below the floor: counts a hit
		t.Fatal("below-floor sequence not suppressed before snapshot")
	}
	st := d.State()

	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded DedupState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := NewDedup(8)
	restored.Restore(decoded)
	testkit.Carried(t, d, restored)

	for seq := uint64(1); seq <= 20; seq++ {
		if !restored.Seen("dc-1", 41, seq) {
			t.Errorf("dc-1 seq %d: suppression lost across the roundtrip", seq)
		}
	}
	if restored.Seen("dc-1", 41, 21) {
		t.Error("unmarked future sequence suppressed after restore")
	}
	if !restored.Seen("dc-2", 7, 3) || !restored.Seen("dc-2", 7, 5) {
		t.Error("dc-2 marks lost across the roundtrip")
	}
	if restored.Seen("dc-2", 7, 4) {
		t.Error("unmarked dc-2 sequence suppressed after restore")
	}
	if restored.Seen("dc-2", 8, 3) {
		t.Error("restored window leaked across boot incarnations")
	}
	// A second export (before the Seen probes above bumped hit counts)
	// must encode identically: checkpoint bytes are deterministic.
	if again := restored.State(); !reflect.DeepEqual(st.DCs, again.DCs) {
		t.Errorf("re-exported windows differ:\n got %+v\nwant %+v", again.DCs, st.DCs)
	}
}

// TestDedupStateDeterministic: two windows built by marking the same
// sequences in different orders export byte-identical snapshots.
func TestDedupStateDeterministic(t *testing.T) {
	a, b := NewDedup(16), NewDedup(16)
	seqs := []uint64{5, 1, 9, 3, 7}
	for _, s := range seqs {
		a.Mark("dc-2", 1, s)
		a.Mark("dc-1", 1, s)
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		b.Mark("dc-1", 1, seqs[i])
		b.Mark("dc-2", 1, seqs[i])
	}
	ab, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Errorf("snapshot encoding depends on mark order:\n a=%s\n b=%s", ab, bb)
	}
}

// taggedCollectSink is a BatchSink that records the delivery tag alongside
// each report, so the test can see exactly what the server dispatched.
type taggedCollectSink struct {
	mu   sync.Mutex
	tags []struct {
		dcid      string
		boot, seq uint64
	}
}

func (s *taggedCollectSink) Deliver(r *Report) error {
	one := [1]Delivery{{Report: r, DCID: r.DCID}}
	s.DeliverBatch(one[:])
	return one[0].Err
}

func (s *taggedCollectSink) DeliverBatch(run []Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range run {
		s.tags = append(s.tags, struct {
			dcid      string
			boot, seq uint64
		}{d.DCID, d.Boot, d.Seq})
	}
}

// TestTaggedSinkDispatch: a server whose sink implements BatchSink hands
// it the wire delivery tag (dcid, boot, seq) for tagged sends and zeros
// for untagged ones — the tag is what a journaling sink persists so its
// replay can re-mark the dedup window.
func TestTaggedSinkDispatch(t *testing.T) {
	sink := &taggedCollectSink{}
	srv := NewServer(sink)
	srv.SetDedup(NewDedup(0))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r := validReport()
	if dup, err := c.SendTagged(r, 9, 42); err != nil || dup {
		t.Fatalf("tagged send: dup=%v err=%v", dup, err)
	}
	if err := c.Send(r); err != nil {
		t.Fatalf("untagged send: %v", err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.tags) != 2 {
		t.Fatalf("sink saw %d deliveries, want 2", len(sink.tags))
	}
	if got := sink.tags[0]; got.dcid != r.DCID || got.boot != 9 || got.seq != 42 {
		t.Errorf("tagged delivery carried (%q, %d, %d), want (%q, 9, 42)",
			got.dcid, got.boot, got.seq, r.DCID)
	}
	if got := sink.tags[1]; got.boot != 0 || got.seq != 0 {
		t.Errorf("untagged delivery carried tag (%d, %d), want zeros", got.boot, got.seq)
	}
}
