// Package shard is the hierarchical fleet-of-fleets tier: it partitions a
// large DC population across many shard PDMEs with a deterministic
// consistent-hash ring (ring.go), routes each DC's uplink to its assigned
// shard with automatic failover to the ring successor (router.go), forwards
// each shard's fused conclusions upward as proto.FusedSummary envelopes over
// the ordinary uplink machinery (forwarder.go), and fuses those summaries
// into a global prioritized view with per-shard coverage and staleness
// discounting (aggregator.go). It is Palem's ship→regional→global CBM
// hierarchy (PAPERS.md) built from the paper's single-station parts.
//
// The package is deterministic by construction and linted as such (noclock,
// maporder): it never reads a wall clock, never sleeps, and never iterates
// an unordered map into an output. All waiting happens inside
// internal/uplink; all timestamps arrive as arguments or ride the data.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Member is one shard PDME in the ring.
type Member struct {
	// ID names the shard (it becomes the wire-level sender identity of the
	// shard's own uplink to the aggregator).
	ID string
	// Addr is the shard PDME's report-server address.
	Addr string
}

// ParseMembers parses the "id=addr,id=addr,..." membership spec the daemons
// take on their command lines (pdmed -ring, dcsim -shards).
func ParseMembers(spec string) ([]Member, error) {
	var members []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("shard: bad member %q (want id=addr)", part)
		}
		members = append(members, Member{ID: id, Addr: addr})
	}
	if len(members) == 0 {
		return nil, errors.New("shard: empty membership spec")
	}
	return members, nil
}

// Ring is a versioned, deterministic assignment of keys (DC ids) to shard
// members. Two properties make it a consistent-hash ring fit for
// bit-reproducible fleets:
//
//   - Determinism: the assignment is a pure function of the membership
//     history and key set — same inputs, same version, same assignment, in
//     any process on any host (the hash is a fixed FNV-1a, never Go's
//     randomized map order or hash seed).
//   - Bounded churn: initial placement is capacity-bounded highest-random-
//     weight (HRW) assignment, so every member owns at most ceil(N/M) keys;
//     removing a member moves exactly that member's keys (≤ ceil(N/M)) and
//     no others, each to its HRW successor — the same member Successor
//     reports, so router-side failover and ring-side reassignment agree.
//
// Ring is immutable after construction, so it may be shared between
// goroutines; membership changes by building a new ring.
type Ring struct {
	version uint64
	members []Member          // sorted by ID
	keys    []string          // sorted
	assign  map[string]string // key → member ID
}

// hashPair scores (key, member) with 64-bit FNV-1a over key NUL member —
// the HRW weight. FNV is stable across processes and architectures.
func hashPair(key, memberID string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(memberID))
	return h.Sum64()
}

// prefOrder returns member ids sorted by descending HRW weight for key,
// ties broken by id — the key's deterministic preference list.
func prefOrder(key string, members []Member) []string {
	type scored struct {
		id string
		w  uint64
	}
	s := make([]scored, len(members))
	for i, m := range members {
		s[i] = scored{m.ID, hashPair(key, m.ID)}
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].w != s[j].w {
			return s[i].w > s[j].w
		}
		return s[i].id < s[j].id
	})
	out := make([]string, len(s))
	for i, sc := range s {
		out[i] = sc.id
	}
	return out
}

// NewRing builds version 1 of a ring over the given members and key
// population. Placement walks the sorted keys and gives each to the first
// member in its HRW preference order with spare capacity (ceil(N/M)), which
// structurally guarantees the balance the churn bound needs.
func NewRing(members []Member, keys []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one member")
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	for i, m := range ms {
		if m.ID == "" {
			return nil, fmt.Errorf("shard: ring member %d has empty id", i)
		}
		if i > 0 && ms[i-1].ID == m.ID {
			return nil, fmt.Errorf("shard: duplicate ring member %q", m.ID)
		}
	}
	ks := append([]string(nil), keys...)
	sort.Strings(ks)
	for i := 1; i < len(ks); i++ {
		if ks[i] == ks[i-1] {
			return nil, fmt.Errorf("shard: duplicate key %q", ks[i])
		}
	}
	r := &Ring{version: 1, members: ms, keys: ks, assign: make(map[string]string, len(ks))}
	capacity := (len(ks) + len(ms) - 1) / len(ms)
	load := make(map[string]int, len(ms))
	for _, k := range ks {
		placed := false
		for _, id := range prefOrder(k, ms) {
			if load[id] < capacity {
				r.assign[k] = id
				load[id]++
				placed = true
				break
			}
		}
		if !placed { // unreachable: total capacity ≥ len(ks)
			return nil, fmt.Errorf("shard: no capacity for key %q", k)
		}
	}
	return r, nil
}

// Version returns the ring's membership-change generation (1 at birth).
func (r *Ring) Version() uint64 { return r.version }

// Members returns the membership, sorted by id.
func (r *Ring) Members() []Member { return append([]Member(nil), r.members...) }

// Keys returns the key population, sorted.
func (r *Ring) Keys() []string { return append([]string(nil), r.keys...) }

// MemberAddr returns a member's address.
func (r *Ring) MemberAddr(id string) (string, bool) {
	for _, m := range r.members {
		if m.ID == id {
			return m.Addr, true
		}
	}
	return "", false
}

// Assign returns the key's owning member. Keys outside the construction
// population fall back to pure HRW first preference, so late-arriving DCs
// still route deterministically.
func (r *Ring) Assign(key string) string {
	if id, ok := r.assign[key]; ok {
		return id
	}
	return prefOrder(key, r.members)[0]
}

// Successor returns the member that should serve the key given the set of
// members currently believed down: the owner when it is up, otherwise the
// first non-down member in the key's HRW preference order — exactly the
// member a ring without the down members would assign the key to, so a
// router that failed over before a ring change needs no second move after
// it.
func (r *Ring) Successor(key string, down map[string]bool) (string, bool) {
	owner := r.Assign(key)
	if !down[owner] {
		return owner, true
	}
	for _, id := range prefOrder(key, r.members) {
		if !down[id] {
			return id, true
		}
	}
	return "", false
}
