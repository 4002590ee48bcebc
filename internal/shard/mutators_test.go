package shard

import (
	"fmt"
	"sort"
)

// The product ring never changes after NewRing and a router keeps the ring
// it was built with. The mutators below are the tests' ring changes: they
// drive the churn bounds, the operator-retarget path and the chaos test's
// mid-run membership change.

// Remove drops a member, bumping the version and reassigning only that
// member's keys — each to its HRW successor among the survivors, with no
// capacity cap (the bound holds because the removed member owned at most
// ceil(N/M) keys). It returns the moved keys, sorted.
func (r *Ring) Remove(id string) ([]string, error) {
	idx := -1
	for i, m := range r.members {
		if m.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("shard: ring has no member %q", id)
	}
	if len(r.members) == 1 {
		return nil, fmt.Errorf("shard: cannot remove last ring member %q", id)
	}
	r.members = append(r.members[:idx], r.members[idx+1:]...)
	r.version++
	down := map[string]bool{id: true}
	var moved []string
	for _, k := range r.keys {
		if r.assign[k] != id {
			continue
		}
		next, ok := r.Successor(k, down)
		if !ok { // unreachable: at least one member survives
			return nil, fmt.Errorf("shard: no successor for key %q", k)
		}
		r.assign[k] = next
		moved = append(moved, k)
	}
	return moved, nil
}

// Add introduces a member, bumping the version. Only keys whose pure-HRW
// first preference in the new membership is the new member move to it —
// expected N/M keys, nothing else disturbed.
func (r *Ring) Add(m Member) ([]string, error) {
	if m.ID == "" {
		return nil, fmt.Errorf("shard: ring member has empty id")
	}
	if _, ok := r.MemberAddr(m.ID); ok {
		return nil, fmt.Errorf("shard: ring already has member %q", m.ID)
	}
	r.members = append(r.members, m)
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].ID < r.members[j].ID })
	r.version++
	var moved []string
	for _, k := range r.keys {
		if prefOrder(k, r.members)[0] == m.ID {
			r.assign[k] = m.ID
			moved = append(moved, k)
		}
	}
	return moved, nil
}

// UpdateRing installs a new ring generation: suspicion resets (the
// operator's ring change is authoritative) and the router re-targets the
// new assignment, keeping its spool. Returns true if the target changed.
func (r *Router) UpdateRing(ring *Ring) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.Ring = ring
	r.down = make(map[string]bool)
	next := ring.Assign(r.cfg.DCID)
	if next == r.target {
		return false
	}
	if err := r.retargetLocked(next); err != nil {
		return false
	}
	return true
}
