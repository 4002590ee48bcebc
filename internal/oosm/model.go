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
// §4.6 maps "object types ... to tables and properties ... to columns"; the
// model keeps each class's objects itself in that shape — one row of values
// per object, in the class's sorted property order — in memory. What must
// outlive the process is made durable by its owner: the PDME's journal
// replays its reports, and the replay re-posts their conclusions.
package oosm

import (
	"fmt"
	"maps"
	"math"
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

// Model is the ship model: a set of classes and their object instances.
// All methods are safe for concurrent use.
type Model struct {
	mu      sync.RWMutex
	classes map[string]*classStore
	events  *eventHub
}

// classStore holds one class's objects. Its schema (name, props, types) is
// fixed at registration; mu guards the rest.
type classStore struct {
	name string
	// props are the class's property names, sorted; types[i] is props[i]'s.
	props []string
	types []PropType

	mu sync.RWMutex
	// objects holds each object's row by serial: row[i] is the value of
	// props[i] (nil: null).
	objects map[int64][]any
	next    int64
	// index files the objects by value for each property FindByProp has been
	// asked about, by slot; each list of serials is ascending.
	index map[int]map[any][]int64
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
	if len(c.Props) == 0 {
		return fmt.Errorf("oosm: class %q has no properties", c.Name)
	}
	s := &classStore{
		name:    c.Name,
		props:   slices.Sorted(maps.Keys(c.Props)),
		objects: make(map[int64][]any),
		index:   make(map[int]map[any][]int64),
	}
	for _, name := range s.props {
		t := c.Props[name]
		if name == "" {
			return fmt.Errorf("oosm: class %q has an unnamed property", c.Name)
		}
		if t < PropString || t > PropTime {
			return fmt.Errorf("oosm: property %q of class %q has unknown type %d", name, c.Name, t)
		}
		s.types = append(s.types, t)
	}
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

// slot returns the position of a property in the class's rows.
func (c *classStore) slot(name string) (int, error) {
	i, ok := slices.BinarySearch(c.props, name)
	if !ok {
		return 0, fmt.Errorf("oosm: class %q has no property %q", c.name, name)
	}
	return i, nil
}

// check validates one value against the type of the property in slot i; nil
// (null) fits every property.
func (c *classStore) check(i int, v any) error {
	if v == nil {
		return nil
	}
	valid := false
	switch c.types[i] {
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
		return fmt.Errorf("oosm: property %q of class %q: value %T has wrong type", c.props[i], c.name, v)
	}
	return nil
}

// Prop is one property of an object write: its name and value (nil: null).
// A write's properties come in strictly ascending name order, the class's slot
// order, so the model lays them into the row in one walk.
type Prop struct {
	Name  string
	Value any
}

// slots checks a property list against the class — names strictly ascending,
// each the class's, each value of its property's type — and returns the row
// slot of each, appended to buf. One merge walk of the list against the
// class's sorted names does all of it.
func (c *classStore) slots(props []Prop, buf []int) ([]int, error) {
	j := 0
	for k, p := range props {
		if k > 0 && p.Name <= props[k-1].Name {
			if p.Name == props[k-1].Name {
				return nil, fmt.Errorf("oosm: property %q of class %q given twice", p.Name, c.name)
			}
			return nil, fmt.Errorf("oosm: property %q of class %q out of order: a write lists its properties by ascending name", p.Name, c.name)
		}
		for j < len(c.props) && c.props[j] < p.Name {
			j++
		}
		if j == len(c.props) || c.props[j] != p.Name {
			return nil, fmt.Errorf("oosm: class %q has no property %q", c.name, p.Name)
		}
		if err := c.check(j, p.Value); err != nil {
			return nil, err
		}
		buf = append(buf, j)
	}
	return buf, nil
}

// list lays a property map out as the property list the class's writes take,
// in buf. A map naming a property the class lacks lists all its names, sorted,
// so the list write refuses it as it refuses any unknown name.
func (c *classStore) list(props map[string]any, buf []Prop) []Prop {
	for _, name := range c.props {
		if v, set := props[name]; set {
			buf = append(buf, Prop{Name: name, Value: v})
		}
	}
	if len(buf) == len(props) {
		return buf
	}
	buf = buf[:0]
	for _, name := range slices.Sorted(maps.Keys(props)) {
		buf = append(buf, Prop{Name: name, Value: props[name]})
	}
	return buf
}

// instant is a time's index key: two times file together exactly when they
// are Equal.
type instant struct {
	sec  int64
	nsec int
}

// indexKey is the key an index files v under; ok is false for a NaN, which
// equals nothing, so no lookup could find it.
func indexKey(v any) (key any, ok bool) {
	switch x := v.(type) {
	case time.Time:
		return instant{x.Unix(), x.Nanosecond()}, true
	case float64:
		if math.IsNaN(x) {
			return nil, false
		}
		return x + 0, true // -0 files with +0, as -0 == +0
	}
	return v, true
}

// indexAdd files serial num under v in slot i's index, if one is built.
// Callers hold c.mu.
func (c *classStore) indexAdd(i int, num int64, v any) {
	idx, built := c.index[i]
	if !built {
		return
	}
	key, ok := indexKey(v)
	if !ok {
		return
	}
	nums := idx[key]
	at, _ := slices.BinarySearch(nums, num)
	idx[key] = slices.Insert(nums, at, num)
}

// indexRemove takes serial num out from under v in slot i's index, if one is
// built. Callers hold c.mu.
func (c *classStore) indexRemove(i int, num int64, v any) {
	idx, built := c.index[i]
	if !built {
		return
	}
	key, ok := indexKey(v)
	if !ok {
		return
	}
	nums := idx[key]
	if at, found := slices.BinarySearch(nums, num); found {
		nums = slices.Delete(nums, at, at+1)
	}
	if len(nums) == 0 {
		delete(idx, key)
	} else {
		idx[key] = nums
	}
}

// maxListed is how many properties a write handles on the stack — the list a
// map write is laid out as, and every write's slots; a write of more costs a
// heap slice.
const maxListed = 16

// Create instantiates an object of the class with the given initial
// properties (missing properties are null). It emits an ObjectCreated event.
// It is CreateWith with the map laid out as a property list.
func (m *Model) Create(class string, props map[string]any) (ObjectID, error) {
	c, err := m.class(class)
	if err != nil {
		return ObjectID{}, err
	}
	var buf [maxListed]Prop
	return m.create(c, c.list(props, buf[:0]), nil)
}

// CreateWith instantiates an object of the class with the given initial
// properties, in strictly ascending name order (missing properties are null).
// Its ObjectCreated event carries payload as its Value: a creator that holds
// the object's content in typed form hands it to the subscribers, which then
// need not read it back out of the object. A list the class refuses creates
// nothing and publishes nothing.
func (m *Model) CreateWith(class string, props []Prop, payload any) (ObjectID, error) {
	c, err := m.class(class)
	if err != nil {
		return ObjectID{}, err
	}
	return m.create(c, props, payload)
}

func (m *Model) create(c *classStore, props []Prop, payload any) (ObjectID, error) {
	var buf [maxListed]int
	slots, err := c.slots(props, buf[:0])
	if err != nil {
		return ObjectID{}, err
	}
	// The row is the model's own: the caller keeps props.
	row := make([]any, len(c.props))
	for k, i := range slots {
		row[i] = props[k].Value
	}
	c.mu.Lock()
	c.next++
	num := c.next
	c.objects[num] = row
	//lint:allow maporder each slot's index is filed on its own; no order leaks out
	for i := range c.index {
		c.indexAdd(i, num, row[i])
	}
	c.mu.Unlock()
	id := ObjectID{Class: c.name, Num: num}
	m.events.publish(Event{Kind: ObjectCreated, Object: id, Value: payload})
	return id, nil
}

// Get returns all properties of an object (null properties as nil values),
// in a map that is the caller's.
func (m *Model) Get(id ObjectID) (map[string]any, error) {
	c, err := m.class(id.Class)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	row, ok := c.objects[id.Num]
	if !ok {
		return nil, fmt.Errorf("oosm: no object %v", id)
	}
	out := make(map[string]any, len(row))
	for i, v := range row {
		out[c.props[i]] = v
	}
	return out, nil
}

// GetProp returns one property value of an object, copying nothing else.
func (m *Model) GetProp(id ObjectID, name string) (any, error) {
	c, err := m.class(id.Class)
	if err != nil {
		return nil, err
	}
	i, err := c.slot(name)
	if err != nil {
		return nil, fmt.Errorf("oosm: object %v has no property %q", id, name)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	row, ok := c.objects[id.Num]
	if !ok {
		return nil, fmt.Errorf("oosm: no object %v", id)
	}
	return row[i], nil
}

// SetProps updates properties of an object, emitting a PropertyChanged event
// per changed property, in name order, and one ObjectUpdated event for the
// write as a whole. It is Set with the map laid out as a property list.
func (m *Model) SetProps(id ObjectID, props map[string]any) error {
	c, err := m.class(id.Class)
	if err != nil {
		return err
	}
	var buf [maxListed]Prop
	return m.set(c, id, c.list(props, buf[:0]))
}

// Set updates properties of an object, given in strictly ascending name
// order. It emits a PropertyChanged event per property, in list order, and
// then one ObjectUpdated event for the write as a whole. A list the class
// refuses changes nothing and publishes nothing.
func (m *Model) Set(id ObjectID, props []Prop) error {
	c, err := m.class(id.Class)
	if err != nil {
		return err
	}
	return m.set(c, id, props)
}

func (m *Model) set(c *classStore, id ObjectID, props []Prop) error {
	var buf [maxListed]int
	slots, err := c.slots(props, buf[:0])
	if err != nil {
		return err
	}
	c.mu.Lock()
	row, ok := c.objects[id.Num]
	if ok {
		for k, i := range slots {
			c.indexRemove(i, id.Num, row[i])
			row[i] = props[k].Value
			c.indexAdd(i, id.Num, row[i])
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("oosm: no object %v", id)
	}
	for _, p := range props {
		m.events.publish(Event{Kind: PropertyChanged, Object: id, Property: p.Name, Value: p.Value})
	}
	m.events.publish(Event{Kind: ObjectUpdated, Object: id})
	return nil
}

// Delete removes an object, emitting an ObjectDeleted event.
func (m *Model) Delete(id ObjectID) error {
	c, err := m.class(id.Class)
	if err != nil {
		return err
	}
	c.mu.Lock()
	row, ok := c.objects[id.Num]
	if ok {
		//lint:allow maporder each slot's index is filed on its own; no order leaks out
		for i := range c.index {
			c.indexRemove(i, id.Num, row[i])
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
	c, err := m.class(id.Class)
	if err != nil {
		return false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.objects[id.Num]
	return ok
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
	key, ok := indexKey(value)
	// The write lock: the first ask builds the index.
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, built := c.index[i]
	if !built {
		idx = make(map[any][]int64)
		c.index[i] = idx
		for _, num := range slices.Sorted(maps.Keys(c.objects)) {
			c.indexAdd(i, num, c.objects[num][i])
		}
	}
	if !ok {
		return nil, nil
	}
	return ids(class, idx[key]), nil
}

// ids makes the object ids of serials of one class.
func ids(class string, nums []int64) []ObjectID {
	out := make([]ObjectID, len(nums))
	for i, n := range nums {
		out[i] = ObjectID{Class: class, Num: n}
	}
	return out
}
