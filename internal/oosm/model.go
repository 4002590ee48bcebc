// Package oosm implements the Object-Oriented Ship Model of §4: a
// repository of machinery state "used for communication between the various
// prognostic and diagnostic software modules".
//
// Entities are objects with typed properties. An object that refers to
// another (a conclusion to its component) names it in a property; the
// paper's typed relationship graph ("part-of", "kind-of", "proximity",
// "flow") is not built, as no process walks it. An event model notifies
// client programs of changes "without the need to poll" (§4.5) — Knowledge
// Fusion subscribes to process failure prediction reports as they arrive.
// §4.6 maps "object types ... to tables and properties ... to columns"; here
// a class's properties are accessors over the one value each object holds —
// a typed class's own Go value (a PDME report object holds the decoded
// report), or a map-declared class's row — so a write boxes nothing, and a
// read boxes only for a caller that asks for an any. What must outlive the
// process is made durable by its owner: the PDME's journal replays its
// reports, and the replay re-posts their conclusions.
package oosm

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

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

// Class describes an object type: its name and property schema. Classes
// mirror the paper's physical entities (sensor, motor, compressor, deck,
// ship) and abstract ones (failure prediction report, knowledge source).
// Exactly one of Props and Fields declares the properties.
type Class struct {
	// Name is the class name, unique within a model.
	Name string
	// Props declares a map-declared class: property names to types. Create
	// lays an object's property map out as a row the model keeps.
	Props map[string]PropType
	// Fields declares a typed class: property names to accessors (String,
	// Float, Time), each reading the *T that every object of the class holds.
	Fields map[string]Accessor
}

// Accessor is one property of a class: its type, and how to read it out of
// an object's value. String, Float and Time make a typed class's; a
// map-declared class's read one slot of the object's row.
type Accessor interface {
	typ() PropType
	// read returns the property, boxed (nil: null).
	read(value any) any
	// key returns what FindByProp files the property under, unboxed.
	key(value any) (k indexKey, ok bool)
	// holds reports whether value is an object value of the class.
	holds(value any) bool
	// of returns a nil of the type of value the accessor reads, so that
	// RegisterClass can check that a class's accessors all read one type.
	of() any
}

// String declares a text property of a typed class whose objects hold a *T.
func String[T any](get func(*T) string) Accessor { return field[T, string]{PropString, get} }

// Float declares a numeric property of a typed class whose objects hold a *T.
func Float[T any](get func(*T) float64) Accessor { return field[T, float64]{PropFloat, get} }

// Time declares a timestamp property of a typed class whose objects hold a *T.
func Time[T any](get func(*T) time.Time) Accessor { return field[T, time.Time]{PropTime, get} }

// field is a typed class's accessor, reading a property out of a *T.
type field[T, V any] struct {
	t   PropType
	get func(*T) V
}

func (f field[T, V]) typ() PropType                   { return f.t }
func (f field[T, V]) read(v any) any                  { return f.get(v.(*T)) }
func (f field[T, V]) key(v any) (k indexKey, ok bool) { k, _, ok = keyOf(f.get(v.(*T))); return }
func (f field[T, V]) holds(v any) bool                { p, ok := v.(*T); return ok && p != nil }
func (f field[T, V]) of() any                         { return (*T)(nil) }

// A map-declared object's value is its row: its properties in name order,
// held as a pointer to the row's first slot. A pointer goes into an any
// unboxed, where a slice would cost the object a second allocation.

// column is a map-declared class's accessor: one slot of the row.
type column struct {
	t    PropType
	slot int
}

// at returns the column's slot of row v; the row has every slot of its class.
func (c column) at(v any) any { return unsafe.Slice(v.(*any), c.slot+1)[c.slot] }

func (c column) typ() PropType                   { return c.t }
func (c column) read(v any) any                  { return c.at(v) }
func (c column) key(v any) (k indexKey, ok bool) { k, _, ok = keyOf(c.at(v)); return }
func (c column) holds(v any) bool                { _, ok := v.(*any); return ok }
func (c column) of() any                         { return (*any)(nil) }

// indexKey is a property value as an index files it: two values of one
// property file together exactly when they are equal (times when Equal).
type indexKey struct {
	s    string
	n    uint64 // a float's bits, an integer, a bool, a time's Unix seconds
	nsec int32  // a time's nanoseconds
	null bool
}

// keyOf returns a property value's key and type; ok is false for a NaN,
// which equals nothing, and for a value of no property type (t is then -1).
// It keeps nothing of v, so a caller's conversion to any needs no heap.
func keyOf(v any) (k indexKey, t PropType, ok bool) {
	switch x := v.(type) {
	case nil:
		return indexKey{null: true}, -1, true
	case string:
		return indexKey{s: x}, PropString, true
	case float64:
		if x == 0 {
			x = 0 // -0 files with +0, as -0 == +0
		}
		return indexKey{n: math.Float64bits(x)}, PropFloat, !math.IsNaN(x)
	case int64:
		return indexKey{n: uint64(x)}, PropInt, true
	case bool:
		if x {
			k.n = 1
		}
		return k, PropBool, true
	case time.Time:
		return indexKey{n: uint64(x.Unix()), nsec: int32(x.Nanosecond())}, PropTime, true
	}
	return k, -1, false
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

// Model is the ship model: a set of classes and their object instances.
// All methods are safe for concurrent use.
type Model struct {
	mu      sync.RWMutex
	classes map[string]*classStore
	events  *eventHub
}

// classStore holds one class's objects. Its schema is fixed at registration;
// mu guards the rest.
type classStore struct {
	name string
	// names are the class's property names, sorted; props[i] is names[i]'s.
	names  []string
	props  []Accessor
	mapped bool // declared by Props: its objects hold rows

	mu sync.RWMutex
	// objects holds each object's value by serial.
	objects map[int64]any
	next    int64
	// index[i] files the objects by property i's key once FindByProp has been
	// asked about it (nil until then); each list of serials is ascending.
	index []map[indexKey][]int64
}

// NewModel creates an empty model. The database argument is unused: the
// model keeps its objects itself, and the parameter goes when relstore leaves
// the product.
func NewModel(*relstore.DB) (*Model, error) {
	return &Model{
		classes: make(map[string]*classStore),
		events:  newEventHub(),
	}, nil
}

// RegisterClass declares an object class.
func (m *Model) RegisterClass(c Class) error {
	if c.Name == "" {
		return fmt.Errorf("oosm: empty class name")
	}
	if (len(c.Props) == 0) == (len(c.Fields) == 0) {
		return fmt.Errorf("oosm: class %q must declare its properties by Props or by Fields", c.Name)
	}
	s := &classStore{name: c.Name, mapped: len(c.Props) > 0, objects: make(map[int64]any)}
	for i, name := range slices.Sorted(maps.Keys(c.Props)) {
		s.names, s.props = append(s.names, name), append(s.props, column{c.Props[name], i})
	}
	for _, name := range slices.Sorted(maps.Keys(c.Fields)) {
		s.names, s.props = append(s.names, name), append(s.props, c.Fields[name])
	}
	for i, a := range s.props {
		if s.names[i] == "" || a == nil || a.typ() < PropString || a.typ() > PropTime {
			return fmt.Errorf("oosm: property %q of class %q is unnamed or of no type", s.names[i], c.Name)
		}
		if a.of() != s.props[0].of() {
			return fmt.Errorf("oosm: property %q of class %q reads a %T, property %q a %T", s.names[i], c.Name, a.of(), s.names[0], s.props[0].of())
		}
	}
	s.index = make([]map[indexKey][]int64, len(s.props))
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.classes[c.Name]; dup {
		return fmt.Errorf("oosm: class %q already registered", c.Name)
	}
	m.classes[c.Name] = s
	return nil
}

// Classes returns the registered class names in sorted order.
func (m *Model) Classes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Sorted(maps.Keys(m.classes))
}

func (m *Model) class(name string) (*classStore, error) {
	m.mu.RLock()
	c, ok := m.classes[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("oosm: unknown class %q", name)
	}
	return c, nil
}

// slot returns the position of a property in the class.
func (c *classStore) slot(name string) (int, error) {
	i, ok := slices.BinarySearch(c.names, name)
	if !ok {
		return 0, fmt.Errorf("oosm: class %q has no property %q", c.name, name)
	}
	return i, nil
}

// check validates one boxed value against the type of the property in slot
// i; nil (null) fits every property.
func (c *classStore) check(i int, v any) error {
	if _, t, _ := keyOf(v); v != nil && t != c.props[i].typ() {
		return fmt.Errorf("oosm: property %q of class %q: value %T has wrong type", c.names[i], c.name, v)
	}
	return nil
}

// object makes the value a new object of the class holds: value itself for a
// typed class; for a map-declared one, a row laid out from the property map
// value (nil: every property null), each entry checked against its type.
func (c *classStore) object(value any) (any, error) {
	if !c.mapped {
		if !c.props[0].holds(value) {
			return nil, fmt.Errorf("oosm: class %q does not hold a %T value", c.name, value)
		}
		return value, nil
	}
	props, ok := value.(map[string]any)
	if !ok && value != nil {
		return nil, fmt.Errorf("oosm: class %q is declared by property map, not %T", c.name, value)
	}
	r, n := make([]any, len(c.props)), 0
	for i, name := range c.names {
		if v, set := props[name]; set {
			if err := c.check(i, v); err != nil {
				return nil, err
			}
			r[i], n = v, n+1
		}
	}
	if n < len(props) {
		// The first name the class lacks, the same in every run.
		for _, name := range slices.Sorted(maps.Keys(props)) {
			if _, err := c.slot(name); err != nil {
				return nil, err
			}
		}
	}
	return &r[0], nil
}

// refile files serial num, holding value, in slot i's index (in), or takes
// it out (!in), if the index is built. Callers hold c.mu.
func (c *classStore) refile(i int, num int64, value any, in bool) {
	idx := c.index[i]
	if idx == nil {
		return
	}
	key, ok := c.props[i].key(value)
	if !ok {
		return
	}
	nums := idx[key]
	switch at, found := slices.BinarySearch(nums, num); {
	case in && !found:
		nums = slices.Insert(nums, at, num)
	case !in && found:
		nums = slices.Delete(nums, at, at+1)
	}
	if len(nums) == 0 {
		delete(idx, key)
	} else {
		idx[key] = nums
	}
}

// Create instantiates an object of the class and emits an ObjectCreated
// event. A typed class's object holds value itself, a non-nil *T of the
// class's accessors, and the event carries it to the subscribers; from then
// on its creator changes it only inside a Set's write. A
// map-declared class takes a map[string]any of initial properties (missing
// ones null) and keeps them in a row of its own; its event carries no value.
// A value the class refuses creates nothing and publishes nothing.
func (m *Model) Create(class string, value any) (ObjectID, error) {
	c, err := m.class(class)
	if err != nil {
		return ObjectID{}, err
	}
	obj, err := c.object(value)
	if err != nil {
		return ObjectID{}, err
	}
	c.mu.Lock()
	c.next++
	num := c.next
	c.objects[num] = obj
	for i := range c.index {
		c.refile(i, num, obj, true)
	}
	c.mu.Unlock()
	if c.mapped {
		obj = nil // the row is the model's own
	}
	id := ObjectID{Class: c.name, Num: num}
	m.events.publish(Event{Kind: ObjectCreated, Object: id, Value: obj})
	return id, nil
}

// read runs fn on an object's class and value under the class's read lock.
func (m *Model) read(id ObjectID, fn func(c *classStore, obj any)) error {
	c, err := m.class(id.Class)
	if err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	obj, ok := c.objects[id.Num]
	if !ok {
		return fmt.Errorf("oosm: no object %v", id)
	}
	fn(c, obj)
	return nil
}

// Get returns all properties of an object (null properties as nil values),
// in a map that is the caller's.
func (m *Model) Get(id ObjectID) (out map[string]any, err error) {
	err = m.read(id, func(c *classStore, obj any) {
		out = make(map[string]any, len(c.props))
		for i, a := range c.props {
			out[c.names[i]] = a.read(obj)
		}
	})
	return out, err
}

// Set rewrites, in place, the properties props names (ascending) of a typed
// class's object: write changes them, and nothing else, in the value the
// object holds, under the class's write lock, so no read sees half of it —
// which is why write may only assign, and must not call into the model. Set
// then emits a PropertyChanged event per property named, in order — its value
// read and boxed only for a class with a PropertyChanged subscriber — and one
// ObjectUpdated event carrying the object's value. A write the class refuses
// (a map-declared class's, whose objects Create writes whole; a name out of
// order or not the class's; no such object) runs nothing, publishes nothing.
func (m *Model) Set(id ObjectID, props []string, write func()) error {
	c, err := m.class(id.Class)
	if err != nil {
		return err
	}
	if c.mapped {
		return fmt.Errorf("oosm: class %q is declared by property map: Create writes its objects whole", c.name)
	}
	var buf [8]int
	slots := buf[:0]
	for k, name := range props {
		i, err := c.slot(name)
		if err != nil {
			return err
		}
		if k > 0 && i <= slots[k-1] {
			return fmt.Errorf("oosm: property %q of class %q out of order: a write names its properties once each, ascending", name, c.name)
		}
		slots = append(slots, i)
	}
	var vals [8]any
	changed := vals[:0]
	announce := m.events.subscribed(c.name, PropertyChanged)
	c.mu.Lock()
	obj, ok := c.objects[id.Num]
	if ok {
		for _, i := range slots {
			c.refile(i, id.Num, obj, false)
		}
		write()
		for _, i := range slots {
			c.refile(i, id.Num, obj, true)
			if announce {
				changed = append(changed, c.props[i].read(obj))
			}
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("oosm: no object %v", id)
	}
	for k, v := range changed {
		m.events.publish(Event{Kind: PropertyChanged, Object: id, Property: props[k], Value: v})
	}
	m.events.publish(Event{Kind: ObjectUpdated, Object: id, Value: obj})
	return nil
}

// Delete removes an object, emitting an ObjectDeleted event.
func (m *Model) Delete(id ObjectID) error {
	c, err := m.class(id.Class)
	if err != nil {
		return err
	}
	c.mu.Lock()
	obj, ok := c.objects[id.Num]
	if ok {
		for i := range c.index {
			c.refile(i, id.Num, obj, false)
		}
		delete(c.objects, id.Num)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("oosm: no object %v", id)
	}
	m.events.publish(Event{Kind: ObjectDeleted, Object: id})
	return nil
}

// Exists reports whether the object is present in the model.
func (m *Model) Exists(id ObjectID) bool {
	return m.read(id, func(*classStore, any) {}) == nil
}

// Instances returns all object ids of a class, ordered by creation.
func (m *Model) Instances(class string) ([]ObjectID, error) {
	c, err := m.class(class)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	// Serials are handed out in creation order.
	nums := slices.Sorted(maps.Keys(c.objects))
	c.mu.RUnlock()
	return ids(class, nums), nil
}

// FindByProp returns the objects of the class whose property equals value, in
// creation order. The first ask about a property indexes it, and the index is
// kept up to date from then on: only properties somebody looks objects up by
// cost their class's writes anything.
func (m *Model) FindByProp(class, prop string, value any) ([]ObjectID, error) {
	c, err := m.class(class)
	if err != nil {
		return nil, err
	}
	i, err := c.slot(prop)
	if err != nil {
		return nil, err
	}
	if err := c.check(i, value); err != nil {
		return nil, err
	}
	key, _, ok := keyOf(value)
	// The write lock: the first ask builds the index.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.index[i] == nil {
		c.index[i] = make(map[indexKey][]int64)
		for _, num := range slices.Sorted(maps.Keys(c.objects)) {
			c.refile(i, num, c.objects[num], true)
		}
	}
	if !ok {
		return nil, nil
	}
	return ids(class, c.index[i][key]), nil
}

// ids makes the object ids of serials of one class.
func ids(class string, nums []int64) []ObjectID {
	out := make([]ObjectID, len(nums))
	for i, n := range nums {
		out[i] = ObjectID{Class: class, Num: n}
	}
	return out
}
