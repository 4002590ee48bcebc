// Package oosm implements the Object-Oriented Ship Model of §4: a persistent
// repository of machinery state "used for communication between the various
// prognostic and diagnostic software modules".
//
// Entities are objects with typed properties. An object that refers to
// another (a conclusion to its component) names it in a property; the
// paper's typed relationship graph ("part-of", "kind-of", "proximity",
// "flow") is not built, as no process walks it. An event model notifies
// client programs of changes "without the need to poll" (§4.5) — Knowledge
// Fusion subscribes to process failure prediction reports as they arrive.
// Persistence follows §4.6: "object types are mapped to tables and
// properties ... to columns", here on the internal/relstore engine, one
// table per class; persistence is "entirely managed in the background" —
// callers never see the tables.
package oosm

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/relstore"
)

// PropType enumerates the value types an object property can hold.
type PropType int

const (
	// PropString is a text property (name, manufacturer, ...).
	PropString PropType = iota
	// PropFloat is a numeric property (capacity, energy usage, ...).
	PropFloat
	// PropInt is an integer property.
	PropInt
	// PropBool is a boolean property.
	PropBool
	// PropTime is a timestamp property.
	PropTime
)

func (p PropType) column() relstore.ColumnType {
	switch p {
	case PropString:
		return relstore.String
	case PropFloat:
		return relstore.Float
	case PropInt:
		return relstore.Int
	case PropBool:
		return relstore.Bool
	case PropTime:
		return relstore.Time
	default:
		return relstore.String
	}
}

// Class describes an object type: its name and property schema. Classes
// mirror the paper's physical entities (sensor, motor, compressor, deck,
// ship) and abstract ones (failure prediction report, knowledge source).
type Class struct {
	// Name is the class name, unique within a model.
	Name string
	// Props maps property names to types.
	Props map[string]PropType
}

// ObjectID identifies an object instance: its class plus a per-class serial.
type ObjectID struct {
	Class string
	Num   int64
}

// String renders the id as "class/num", the form used as the SensedObjectID
// in protocol reports.
func (id ObjectID) String() string { return fmt.Sprintf("%s/%d", id.Class, id.Num) }

// IsZero reports whether the id is the zero value.
func (id ObjectID) IsZero() bool { return id.Class == "" && id.Num == 0 }

// Model is the ship model: a set of classes and their object instances,
// persisted transparently to a relstore database, one table per class.
// All methods are safe for concurrent use.
type Model struct {
	mu      sync.RWMutex
	db      *relstore.DB
	classes map[string]Class
	events  *eventHub
}

// NewModel creates a model whose objects live in db, one table per class.
// A model over a database another model wrote to sees that model's objects
// once RegisterClass is called again with the same schemas.
func NewModel(db *relstore.DB) (*Model, error) {
	return &Model{
		db:      db,
		classes: make(map[string]Class),
		events:  newEventHub(),
	}, nil
}

func classTable(class string) string { return "oosm_obj_" + class }

// RegisterClass declares (or re-attaches to) an object class. Property names
// must not collide with the reserved "id" column.
func (m *Model) RegisterClass(c Class) error {
	if c.Name == "" {
		return fmt.Errorf("oosm: empty class name")
	}
	if len(c.Props) == 0 {
		return fmt.Errorf("oosm: class %q has no properties", c.Name)
	}
	cols := make([]relstore.Column, 0, len(c.Props))
	for _, n := range slices.Sorted(maps.Keys(c.Props)) {
		cols = append(cols, relstore.Column{
			Name:     n,
			Type:     c.Props[n].column(),
			Nullable: true,
		})
	}
	if err := m.db.EnsureTable(relstore.Schema{Name: classTable(c.Name), Columns: cols}); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.classes[c.Name]; dup {
		return fmt.Errorf("oosm: class %q already registered", c.Name)
	}
	m.classes[c.Name] = Class{Name: c.Name, Props: maps.Clone(c.Props)}
	return nil
}

// Classes returns the registered class names in sorted order.
func (m *Model) Classes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Sorted(maps.Keys(m.classes))
}

// checkProps validates property names and value types against a class.
func (m *Model) checkProps(c Class, props map[string]any) error {
	//lint:allow maporder validation only; the accepted (error-free) outcome is order-independent
	for name, v := range props {
		pt, ok := c.Props[name]
		if !ok {
			return fmt.Errorf("oosm: class %q has no property %q", c.Name, name)
		}
		if v == nil {
			continue
		}
		valid := false
		switch pt {
		case PropString:
			_, valid = v.(string)
		case PropFloat:
			_, valid = v.(float64)
		case PropInt:
			_, valid = v.(int64)
		case PropBool:
			_, valid = v.(bool)
		case PropTime:
			_, valid = v.(time.Time)
		}
		if !valid {
			return fmt.Errorf("oosm: property %q of class %q: value %T has wrong type", name, c.Name, v)
		}
	}
	return nil
}

// Create instantiates an object of the class with the given initial
// properties (missing properties are null). It emits an ObjectCreated event.
func (m *Model) Create(class string, props map[string]any) (ObjectID, error) {
	m.mu.RLock()
	c, ok := m.classes[class]
	m.mu.RUnlock()
	if !ok {
		return ObjectID{}, fmt.Errorf("oosm: unknown class %q", class)
	}
	if err := m.checkProps(c, props); err != nil {
		return ObjectID{}, err
	}
	// Insert stores its own copy of the row: the caller keeps props.
	num, err := m.db.Insert(classTable(class), relstore.Row(props))
	if err != nil {
		return ObjectID{}, err
	}
	id := ObjectID{Class: class, Num: num}
	m.events.publish(Event{Kind: ObjectCreated, Object: id})
	return id, nil
}

// Get returns all properties of an object (null properties as nil values).
func (m *Model) Get(id ObjectID) (map[string]any, error) {
	row, err := m.db.Get(classTable(id.Class), id.Num)
	if err != nil {
		return nil, fmt.Errorf("oosm: %v: %w", id, err)
	}
	// The row is a copy made for this call, so it is handed over as it is.
	out := map[string]any(row)
	delete(out, "id")
	return out, nil
}

// GetProp returns one property value of an object.
func (m *Model) GetProp(id ObjectID, name string) (any, error) {
	props, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	v, ok := props[name]
	if !ok {
		return nil, fmt.Errorf("oosm: object %v has no property %q", id, name)
	}
	return v, nil
}

// SetProps updates properties of an object, emitting a PropertyChanged event
// per changed property and one ObjectUpdated event for the write as a whole.
func (m *Model) SetProps(id ObjectID, props map[string]any) error {
	m.mu.RLock()
	c, ok := m.classes[id.Class]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("oosm: unknown class %q", id.Class)
	}
	if err := m.checkProps(c, props); err != nil {
		return err
	}
	// Update only reads the changes: nothing keeps props.
	if err := m.db.Update(classTable(id.Class), id.Num, relstore.Row(props)); err != nil {
		return err
	}
	// Publish in sorted property order so watchers see a deterministic event
	// sequence for one write, whatever the map layout.
	for _, k := range slices.Sorted(maps.Keys(props)) {
		m.events.publish(Event{Kind: PropertyChanged, Object: id, Property: k, Value: props[k]})
	}
	m.events.publish(Event{Kind: ObjectUpdated, Object: id})
	return nil
}

// Delete removes an object, emitting an ObjectDeleted event.
func (m *Model) Delete(id ObjectID) error {
	if err := m.db.Delete(classTable(id.Class), id.Num); err != nil {
		return err
	}
	m.events.publish(Event{Kind: ObjectDeleted, Object: id})
	return nil
}

// Exists reports whether the object is present in the model.
func (m *Model) Exists(id ObjectID) bool {
	_, err := m.db.Get(classTable(id.Class), id.Num)
	return err == nil
}

// Instances returns all object ids of a class, ordered by creation.
func (m *Model) Instances(class string) ([]ObjectID, error) {
	rows, err := m.db.Select(classTable(class), nil, 0)
	if err != nil {
		return nil, err
	}
	out := make([]ObjectID, len(rows))
	for i, r := range rows {
		out[i] = ObjectID{Class: class, Num: r.ID()}
	}
	return out, nil
}

// FindByProp returns objects of the class whose property equals value.
func (m *Model) FindByProp(class, prop string, value any) ([]ObjectID, error) {
	rows, err := m.db.Select(classTable(class), relstore.Eq(prop, value), 0)
	if err != nil {
		return nil, err
	}
	out := make([]ObjectID, len(rows))
	for i, r := range rows {
		out[i] = ObjectID{Class: class, Num: r.ID()}
	}
	return out, nil
}
