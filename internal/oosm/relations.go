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
