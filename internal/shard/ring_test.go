package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func testMembers(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{ID: fmt.Sprintf("shard-%d", i+1), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i+1)}
	}
	return out
}

func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dc-%04d", i+1)
	}
	return out
}

// TestRingDeterministicAcrossInputOrder: the assignment is a pure function
// of the membership/key SETS — shuffled construction inputs produce the
// identical ring.
func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	members := testMembers(8)
	keys := testKeys(1000)
	ref, err := NewRing(members, keys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		ms := append([]Member(nil), members...)
		ks := append([]string(nil), keys...)
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		r, err := NewRing(ms, ks)
		if err != nil {
			t.Fatal(err)
		}
		if r.Version() != ref.Version() {
			t.Fatalf("trial %d: version %d != %d", trial, r.Version(), ref.Version())
		}
		for _, k := range keys {
			if r.Assign(k) != ref.Assign(k) {
				t.Fatalf("trial %d: key %s assigned %s, ref %s", trial, k, r.Assign(k), ref.Assign(k))
			}
		}
	}
}

// TestRingGoldenAssignment pins concrete assignments: the hash is a fixed
// FNV-1a over fixed strings, so THIS table must hold in every process on
// every architecture, forever — the cross-process half of the determinism
// claim without spawning a process.
func TestRingGoldenAssignment(t *testing.T) {
	r, err := NewRing(testMembers(8), testKeys(12))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{
		"dc-0001": "shard-4",
		"dc-0002": "shard-8",
		"dc-0003": "shard-2",
		"dc-0004": "shard-1",
		"dc-0005": "shard-8",
		"dc-0006": "shard-7",
		"dc-0007": "shard-6",
		"dc-0008": "shard-5",
		"dc-0009": "shard-4",
		"dc-0010": "shard-6",
		"dc-0011": "shard-7",
		"dc-0012": "shard-1",
	}
	for _, k := range testKeys(12) {
		if got := r.Assign(k); got != golden[k] {
			t.Errorf("key %s: got %s, golden %s", k, got, golden[k])
		}
	}
}

// TestRingBalance: capacity-bounded placement guarantees every member owns
// at most ceil(N/M) keys — the structural property the churn bound needs.
func TestRingBalance(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1000, 8}, {1000, 7}, {13, 4}, {8, 8}, {5, 8}} {
		r, err := NewRing(testMembers(tc.m), testKeys(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		capacity := (tc.n + tc.m - 1) / tc.m
		total := 0
		for id, load := range r.Loads() {
			total += load
			if load > capacity {
				t.Errorf("N=%d M=%d: member %s owns %d > ceil %d", tc.n, tc.m, id, load, capacity)
			}
		}
		if total != tc.n {
			t.Errorf("N=%d M=%d: loads sum to %d", tc.n, tc.m, total)
		}
	}
}

// TestRingRemovalChurnBound: removing any single member moves exactly that
// member's keys — at most ceil(N/M) — and every surviving member's keys
// stay put.
func TestRingRemovalChurnBound(t *testing.T) {
	const n, m = 1000, 8
	capacity := (n + m - 1) / m
	for victim := 1; victim <= m; victim++ {
		r, err := NewRing(testMembers(m), testKeys(n))
		if err != nil {
			t.Fatal(err)
		}
		victimID := fmt.Sprintf("shard-%d", victim)
		before := make(map[string]string, n)
		var owned int
		for _, k := range r.Keys() {
			before[k] = r.Assign(k)
			if before[k] == victimID {
				owned++
			}
		}
		moved, err := r.Remove(victimID)
		if err != nil {
			t.Fatal(err)
		}
		if len(moved) != owned {
			t.Fatalf("remove %s: moved %d keys, member owned %d", victimID, len(moved), owned)
		}
		if len(moved) > capacity {
			t.Fatalf("remove %s: churn %d exceeds ceil(N/M)=%d", victimID, len(moved), capacity)
		}
		if r.Version() != 2 {
			t.Fatalf("remove %s: version %d, want 2", victimID, r.Version())
		}
		movedSet := make(map[string]bool, len(moved))
		for _, k := range moved {
			movedSet[k] = true
		}
		for _, k := range r.Keys() {
			after := r.Assign(k)
			switch {
			case before[k] == victimID:
				if !movedSet[k] {
					t.Fatalf("remove %s: orphan %s not in moved list", victimID, k)
				}
				if after == victimID {
					t.Fatalf("remove %s: key %s still assigned to removed member", victimID, k)
				}
			default:
				if movedSet[k] || after != before[k] {
					t.Fatalf("remove %s: unrelated key %s moved %s→%s", victimID, k, before[k], after)
				}
			}
		}
	}
}

// TestRingSuccessorMatchesRemoval: the router's failover target
// (Successor with the victim marked down) is exactly the post-Remove
// owner, so a DC that failed over before the ring change lands where the
// ring change would put it — no second migration, no evidence split.
func TestRingSuccessorMatchesRemoval(t *testing.T) {
	const n, m = 200, 8
	for victim := 1; victim <= m; victim++ {
		r, err := NewRing(testMembers(m), testKeys(n))
		if err != nil {
			t.Fatal(err)
		}
		victimID := fmt.Sprintf("shard-%d", victim)
		down := map[string]bool{victimID: true}
		predicted := make(map[string]string, n)
		for _, k := range r.Keys() {
			succ, ok := r.Successor(k, down)
			if !ok {
				t.Fatalf("no successor for %s", k)
			}
			predicted[k] = succ
		}
		if _, err := r.Remove(victimID); err != nil {
			t.Fatal(err)
		}
		for _, k := range r.Keys() {
			if got := r.Assign(k); got != predicted[k] {
				t.Fatalf("remove %s: key %s assigned %s, Successor predicted %s", victimID, k, got, predicted[k])
			}
		}
	}
}

// TestRingAddMovesOnlyToNewMember: adding a member only pulls keys toward
// it, never shuffles keys among incumbents.
func TestRingAddMovesOnlyToNewMember(t *testing.T) {
	r, err := NewRing(testMembers(7), testKeys(1000))
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[string]string, 1000)
	for _, k := range r.Keys() {
		before[k] = r.Assign(k)
	}
	moved, err := r.Add(Member{ID: "shard-8", Addr: "127.0.0.1:9008"})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 {
		t.Fatal("adding a member to a 1000-key ring moved nothing")
	}
	if r.Version() != 2 {
		t.Fatalf("version %d, want 2", r.Version())
	}
	movedSet := make(map[string]bool, len(moved))
	for _, k := range moved {
		movedSet[k] = true
	}
	for _, k := range r.Keys() {
		after := r.Assign(k)
		if movedSet[k] {
			if after != "shard-8" {
				t.Fatalf("moved key %s landed on %s", k, after)
			}
		} else if after != before[k] {
			t.Fatalf("unmoved key %s shuffled %s→%s", k, before[k], after)
		}
	}
}

// TestRingValidation covers constructor and mutation error paths.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, testKeys(3)); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]Member{{ID: "a"}, {ID: "a"}}, nil); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRing([]Member{{ID: ""}}, nil); err == nil {
		t.Error("empty member id accepted")
	}
	if _, err := NewRing(testMembers(2), []string{"k", "k"}); err == nil {
		t.Error("duplicate key accepted")
	}
	r, err := NewRing(testMembers(2), testKeys(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Remove("nope"); err == nil {
		t.Error("removing unknown member accepted")
	}
	if _, err := r.Add(Member{ID: "shard-1"}); err == nil {
		t.Error("re-adding existing member accepted")
	}
	if _, err := r.Remove("shard-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Remove("shard-2"); err == nil {
		t.Error("removing last member accepted")
	}
	// Unknown keys still route deterministically (pure HRW fallback).
	if got, want := r.Assign("dc-9999"), r.Assign("dc-9999"); got != want || got == "" {
		t.Errorf("unknown-key fallback unstable: %q vs %q", got, want)
	}
}

// TestParseMembers: the one membership-spec parser behind pdmed -ring and
// dcsim -shards keeps order, tolerates spaces and stray commas, and refuses
// anything that is not id=addr.
func TestParseMembers(t *testing.T) {
	got, err := ParseMembers(" shard-2=127.0.0.1:7012, shard-1=host:7011,,")
	want := []Member{{ID: "shard-2", Addr: "127.0.0.1:7012"}, {ID: "shard-1", Addr: "host:7011"}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("ParseMembers = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{"", " , ", "shard-1", "=addr", "shard-1=", "shard-1=a,shard-2"} {
		if m, err := ParseMembers(bad); err == nil {
			t.Errorf("ParseMembers(%q) accepted: %+v", bad, m)
		}
	}
}

// Loads returns the per-member key counts, keyed by member id: the
// balance the ring tests measure.
func (r *Ring) Loads() map[string]int {
	out := make(map[string]int, len(r.members))
	for _, m := range r.members {
		out[m.ID] = 0
	}
	for _, k := range r.keys {
		out[r.assign[k]]++
	}
	return out
}
