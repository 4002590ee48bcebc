package oosm

import (
	"fmt"

	"repro/internal/relstore"
)

// RelKind names a relationship type. The paper's common relationships are
// provided as constants; arbitrary kinds are allowed.
type RelKind string

const (
	// PartOf links a component to its assembly ("compressor part-of chiller").
	PartOf RelKind = "part-of"
	// KindOf links an instance to a more general category.
	KindOf RelKind = "kind-of"
	// Proximity links physically adjacent equipment — the paper's spatial
	// reasoning example: "a device is vibrating because a component next to
	// it is broken and vibrating wildly" (§10.1).
	Proximity RelKind = "proximity"
	// Flow links components along a fluid, electrical, or mechanical energy
	// path ("one component passing fouled fluids on to other components
	// downstream", §10.1).
	Flow RelKind = "flow"
	// RefersTo links an abstract object (e.g. a report) to its subject.
	RefersTo RelKind = "refers-to"
)

// Relate records a directed relationship from -> to of the given kind. Both
// objects must exist. Duplicate identical relationships are idempotent.
func (m *Model) Relate(kind RelKind, from, to ObjectID) error {
	if !m.Exists(from) {
		return fmt.Errorf("oosm: relate: %v does not exist", from)
	}
	if !m.Exists(to) {
		return fmt.Errorf("oosm: relate: %v does not exist", to)
	}
	// Idempotence: check for an identical edge first.
	existing, err := m.db.Select(relTable, relstore.And(
		relstore.Eq("from", from.String()),
		relstore.Eq("kind", string(kind)),
		relstore.Eq("to", to.String()),
	), 1)
	if err != nil {
		return err
	}
	if len(existing) > 0 {
		return nil
	}
	_, err = m.db.Insert(relTable, relstore.Row{
		"kind": string(kind),
		"from": from.String(),
		"to":   to.String(),
	})
	if err != nil {
		return err
	}
	m.events.publish(Event{Kind: RelationAdded, Object: from, Relation: kind, Other: to})
	return nil
}

// Unrelate removes a relationship; removing a non-existent edge is an error.
func (m *Model) Unrelate(kind RelKind, from, to ObjectID) error {
	rows, err := m.db.Select(relTable, relstore.And(
		relstore.Eq("from", from.String()),
		relstore.Eq("kind", string(kind)),
		relstore.Eq("to", to.String()),
	), 1)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("oosm: no %s relationship %v -> %v", kind, from, to)
	}
	if err := m.db.Delete(relTable, rows[0].ID()); err != nil {
		return err
	}
	m.events.publish(Event{Kind: RelationRemoved, Object: from, Relation: kind, Other: to})
	return nil
}

// Related returns the targets of relationships of the given kind from the
// object ("what is this part-of?").
func (m *Model) Related(from ObjectID, kind RelKind) ([]ObjectID, error) {
	rows, err := m.db.Select(relTable, relstore.And(
		relstore.Eq("from", from.String()),
		relstore.Eq("kind", string(kind)),
	), 0)
	if err != nil {
		return nil, err
	}
	return idsFromRows(rows, "to")
}

// RelatedTo returns the sources of relationships of the given kind pointing
// at the object ("what are the parts of this?").
func (m *Model) RelatedTo(to ObjectID, kind RelKind) ([]ObjectID, error) {
	rows, err := m.db.Select(relTable, relstore.And(
		relstore.Eq("to", to.String()),
		relstore.Eq("kind", string(kind)),
	), 0)
	if err != nil {
		return nil, err
	}
	return idsFromRows(rows, "from")
}

func idsFromRows(rows []relstore.Row, col string) ([]ObjectID, error) {
	out := make([]ObjectID, 0, len(rows))
	for _, r := range rows {
		s, _ := r[col].(string)
		id, err := ParseObjectID(s)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return out, nil
}

// TransitiveRelated walks kind-edges from the object up to maxDepth hops
// (maxDepth <= 0 means unlimited) and returns every reachable object in
// breadth-first order, excluding the start. Cycles are handled. This backs
// the §10.1 multi-level reasoning: "the health of a system based on the
// health of a constituent part".
func (m *Model) TransitiveRelated(from ObjectID, kind RelKind, maxDepth int) ([]ObjectID, error) {
	seen := map[ObjectID]bool{from: true}
	var out []ObjectID
	frontier := []ObjectID{from}
	depth := 0
	for len(frontier) > 0 {
		if maxDepth > 0 && depth >= maxDepth {
			break
		}
		depth++
		var next []ObjectID
		for _, id := range frontier {
			targets, err := m.Related(id, kind)
			if err != nil {
				return nil, err
			}
			for _, t := range targets {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	return out, nil
}

// Neighbors returns all objects related to id by any kind, in either
// direction, deduplicated — the spatial-reasoning primitive.
func (m *Model) Neighbors(id ObjectID) ([]ObjectID, error) {
	seen := map[ObjectID]bool{id: true}
	var out []ObjectID
	for _, col := range []string{"from", "to"} {
		rows, err := m.db.Select(relTable, relstore.Eq(col, id.String()), 0)
		if err != nil {
			return nil, err
		}
		other := "to"
		if col == "to" {
			other = "from"
		}
		ids, err := idsFromRows(rows, other)
		if err != nil {
			return nil, err
		}
		for _, o := range ids {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out, nil
}
