package oosm

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relstore"
)

// unit is the value the objects of the typed "pump" class hold in these
// tests; unitProps is the same schema declared by property map.
type unit struct {
	name      string
	powerKW   float64
	installed time.Time
}

var (
	unitFields = map[string]Accessor{
		"name":      String(func(u *unit) string { return u.name }),
		"power_kw":  Float(func(u *unit) float64 { return u.powerKW }),
		"installed": Time(func(u *unit) time.Time { return u.installed }),
	}
	unitProps = map[string]PropType{"name": PropString, "power_kw": PropFloat, "installed": PropTime}
)

func newTestModel(t testing.TB) *Model {
	t.Helper()
	m, err := NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Class{
		{Name: "ship", Props: map[string]PropType{"name": PropString}},
		{Name: "chiller", Props: map[string]PropType{
			"name": PropString, "manufacturer": PropString, "capacity_tons": PropFloat,
		}},
		{Name: "motor", Props: map[string]PropType{
			"name": PropString, "power_kw": PropFloat, "poles": PropInt,
			"running": PropBool, "installed": PropTime,
		}},
		{Name: "compressor", Props: map[string]PropType{"name": PropString}},
		{Name: "report", Props: map[string]PropType{
			"condition": PropString, "belief": PropFloat, "severity": PropFloat,
		}},
		{Name: "pump", Fields: unitFields},
	} {
		if err := m.RegisterClass(c); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestObjectIDParse(t *testing.T) {
	id := ObjectID{Class: "motor", Num: 42}
	if !(ObjectID{}).IsZero() {
		t.Error("zero id")
	}
	if id.IsZero() {
		t.Error("non-zero id")
	}
}

func TestRegisterClassValidation(t *testing.T) {
	m := newTestModel(t)
	if err := m.RegisterClass(Class{Name: "", Props: map[string]PropType{"a": PropString}}); err == nil {
		t.Error("empty name")
	}
	if err := m.RegisterClass(Class{Name: "x", Props: nil}); err == nil {
		t.Error("no props")
	}
	if err := m.RegisterClass(Class{Name: "ship", Props: map[string]PropType{"a": PropString}}); err == nil {
		t.Error("duplicate class")
	}
	if err := m.RegisterClass(Class{Name: "both", Props: unitProps, Fields: unitFields}); err == nil {
		t.Error("a class declared both by map and by accessors")
	}
	if err := m.RegisterClass(Class{Name: "unnamed", Fields: map[string]Accessor{"": unitFields["name"]}}); err == nil {
		t.Error("an unnamed property")
	}
	if err := m.RegisterClass(Class{Name: "untyped", Props: map[string]PropType{"a": PropTime + 1}}); err == nil {
		t.Error("a property of no type")
	}
	mixed := map[string]Accessor{
		"name":  unitFields["name"],
		"label": String(func(s *struct{ label string }) string { return s.label }),
	}
	if err := m.RegisterClass(Class{Name: "mixed", Fields: mixed}); err == nil {
		t.Error("a class whose accessors read values of two types")
	}
	cs := m.Classes()
	if len(cs) != 6 {
		t.Errorf("classes %v", cs)
	}
}

func TestObjectLifecycle(t *testing.T) {
	m := newTestModel(t)
	installed := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	id, err := m.Create("motor", map[string]any{
		"name": "A/C Compressor Motor 1", "power_kw": 75.0,
		"poles": int64(4), "running": true, "installed": installed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Exists(id) {
		t.Fatal("created object should exist")
	}
	props, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if props["name"] != "A/C Compressor Motor 1" || props["power_kw"] != 75.0 ||
		props["poles"] != int64(4) || props["running"] != true {
		t.Errorf("props %v", props)
	}
	if got, _ := props["installed"].(time.Time); !got.Equal(installed) {
		t.Errorf("installed %v", props["installed"])
	}
	u := &unit{name: "P1", powerKW: 7.5}
	pump, err := m.Create("pump", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(pump, []string{"power_kw"}, func() { u.powerKW = 9 }); err != nil {
		t.Fatal(err)
	}
	if props, _ := m.Get(pump); props["name"] != "P1" || props["power_kw"] != 9.0 || !props["installed"].(time.Time).IsZero() {
		t.Errorf("pump props %v", props)
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if m.Exists(id) {
		t.Error("deleted object exists")
	}
	if _, err := m.Get(id); err == nil {
		t.Error("Get after delete")
	}
}

func TestCreateValidation(t *testing.T) {
	m := newTestModel(t)
	if _, err := m.Create("ghost", nil); err == nil {
		t.Error("unknown class")
	}
	if _, err := m.Create("motor", map[string]any{"ghost": 1}); err == nil {
		t.Error("unknown property")
	}
	if _, err := m.Create("motor", map[string]any{"power_kw": "oops"}); err == nil {
		t.Error("wrong type")
	}
	if _, err := m.Create("motor", map[string]any{"power_kw": nil}); err != nil {
		t.Error("nil property should be allowed")
	}
	if _, err := m.Create("motor", map[string]any{"poles": 4}); err == nil {
		t.Error("int (not int64) should be rejected")
	}
	if _, err := m.Create("motor", &unit{}); err == nil {
		t.Error("a map-declared class took a typed value")
	}
	for _, v := range []any{nil, (*unit)(nil), unit{}, map[string]any{"name": "p"}} {
		if _, err := m.Create("pump", v); err == nil {
			t.Errorf("the typed class took %#v", v)
		}
	}
	id, err := m.Create("motor", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(id, []string{"name"}, func() {}); err == nil {
		t.Error("Set on a map-declared class")
	}
	if err := m.Set(ObjectID{Class: "ghost", Num: 1}, nil, func() {}); err == nil {
		t.Error("Set on an unknown class")
	}
	if err := m.Set(ObjectID{Class: "pump", Num: 99}, []string{"name"}, func() { t.Error("a write ran for no object") }); err == nil {
		t.Error("Set on a missing object")
	}
}

func TestInstancesAndFind(t *testing.T) {
	m := newTestModel(t)
	for i := 0; i < 5; i++ {
		if _, err := m.Create("motor", map[string]any{"name": fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := m.Instances("motor")
	if err != nil || len(ids) != 5 {
		t.Fatalf("instances %v %v", ids, err)
	}
	found, err := m.FindByProp("motor", "name", "m3")
	if err != nil || len(found) != 1 {
		t.Fatalf("find %v %v", found, err)
	}
	// A map-declared object's missing property is null, and files as null.
	unnamed, err := m.Create("motor", map[string]any{"poles": int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if found, err := m.FindByProp("motor", "name", nil); err != nil || !slices.Equal(found, []ObjectID{unnamed}) {
		t.Fatalf("find null name: %v %v, want %v", found, err, unnamed)
	}
	if _, err := m.Instances("ghost"); err == nil {
		t.Error("instances of unknown class")
	}
}

// TestModelHoldsItsObjects: the model holds one object per Create and none
// after its Delete; a map Get returned is the caller's to change; and
// FindByProp stays exact — on a property indexed before the writes and on one
// indexed after them — when Set moves an object from one value to another.
func TestModelHoldsItsObjects(t *testing.T) {
	m := newTestModel(t)
	var made []ObjectID
	var units []*unit
	for i := 0; i < 6; i++ {
		u := &unit{name: fmt.Sprintf("c%d", i%3), powerKW: float64(i)}
		id, err := m.Create("pump", u)
		if err != nil {
			t.Fatal(err)
		}
		made, units = append(made, id), append(units, u)
	}
	if ids, err := m.Instances("pump"); err != nil || !slices.Equal(ids, made) {
		t.Fatalf("instances %v (%v), want the %d created, in creation order: %v", ids, err, len(made), made)
	}
	if err := m.Delete(made[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(made[1]); err == nil {
		t.Error("a second Delete of one object succeeded")
	}
	if m.Exists(made[1]) {
		t.Fatal("deleted object still exists")
	}
	if _, err := m.Get(made[1]); err == nil {
		t.Fatal("Get of a deleted object succeeded")
	}
	if ids, _ := m.Instances("pump"); !slices.Equal(ids, slices.Delete(slices.Clone(made), 1, 2)) {
		t.Fatalf("instances after a Delete: %v", ids)
	}

	props, err := m.Get(made[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 3 || props["name"] != "c0" || props["power_kw"] != 0.0 {
		t.Fatalf("Get %v, want every property", props)
	}
	props["name"] = "changed"
	delete(props, "power_kw")
	if again, _ := m.Get(made[0]); again["name"] != "c0" || again["power_kw"] != 0.0 {
		t.Fatalf("changing Get's map changed the object: %v", again)
	}

	find := func(prop string, v any) []ObjectID {
		t.Helper()
		ids, err := m.FindByProp("pump", prop, v)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	set := func(i int, props []string, write func(u *unit)) {
		t.Helper()
		if err := m.Set(made[i], props, func() { write(units[i]) }); err != nil {
			t.Fatal(err)
		}
	}
	// "name" is indexed from here on; "power_kw" only after the writes.
	if got := find("name", "c0"); !slices.Equal(got, []ObjectID{made[0], made[3]}) {
		t.Fatalf("name c0: %v", got)
	}
	set(0, []string{"name", "power_kw"}, func(u *unit) { u.name, u.powerKW = "c2", 5 })
	set(4, []string{"name"}, func(u *unit) { u.name = "" })
	for _, tc := range []struct {
		prop string
		v    any
		want []ObjectID
	}{
		{"name", "c0", []ObjectID{made[3]}},
		{"name", "c1", nil},
		{"name", "c2", []ObjectID{made[0], made[2], made[5]}},
		{"name", "", []ObjectID{made[4]}},
		{"name", nil, nil},
		{"power_kw", 5.0, []ObjectID{made[0], made[5]}},
		{"power_kw", math.Copysign(0, -1), nil},
		{"power_kw", math.NaN(), nil},
	} {
		if got := find(tc.prop, tc.v); !slices.Equal(got, tc.want) {
			t.Errorf("%s = %v: %v, want %v", tc.prop, tc.v, got, tc.want)
		}
	}
	if err := m.Delete(made[5]); err != nil {
		t.Fatal(err)
	}
	if got := find("name", "c2"); !slices.Equal(got, []ObjectID{made[0], made[2]}) {
		t.Errorf("name c2 after a Delete: %v", got)
	}
	if got := find("power_kw", 5.0); !slices.Equal(got, []ObjectID{made[0]}) {
		t.Errorf("power 5 after a Delete: %v", got)
	}
	if _, err := m.FindByProp("pump", "name", 1.0); err == nil {
		t.Error("FindByProp with a value of the wrong type")
	}
	if _, err := m.FindByProp("pump", "ghost", "x"); err == nil {
		t.Error("FindByProp on an unknown property")
	}
}

// TestCreateGetAllocBudget: a steady-state Create + Get + Delete of a
// map-declared object with an indexed property allocates the row, the map Get
// hands over, and nothing per property beyond them.
func TestCreateGetAllocBudget(t *testing.T) {
	const budget = 4
	m := newTestModel(t)
	props := map[string]any{"condition": "imbalance", "belief": 0.8, "severity": 0.5}
	if _, err := m.FindByProp("report", "condition", "imbalance"); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		id, err := m.Create("report", props)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Get(id); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	t.Logf("%.0f allocations per Create + Get + Delete", allocs)
	if allocs > budget {
		t.Fatalf("a steady-state Create + Get + Delete allocates %.0f times, budget %d", allocs, budget)
	}
}

// TestTypedRewriteAllocatesNothing: a steady-state Set of a typed object,
// moving it between two values of an indexed property, allocates nothing —
// with no PropertyChanged subscriber, and with one, apart from the one box per
// named property that subscriber is handed.
func TestTypedRewriteAllocatesNothing(t *testing.T) {
	m := newTestModel(t)
	u := &unit{name: "p1", powerKW: 7.5}
	id, err := m.Create("pump", u)
	if err != nil {
		t.Fatal(err)
	}
	// Objects that keep both values filed, so the move empties no list.
	for _, name := range []string{"p1", "p2"} {
		if _, err := m.Create("pump", &unit{name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.FindByProp("pump", "name", "p1"); err != nil {
		t.Fatal(err)
	}
	m.SubscribeClass("pump", ObjectUpdated, func(Event) {})
	names := []string{"p1", "p2"}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	written := []string{"installed", "name", "power_kw"}
	n := 0
	rewrite := func() {
		n++
		if err := m.Set(id, written, func() {
			u.name, u.powerKW, u.installed = names[n%2], 1000+float64(n), at.Add(time.Duration(n))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		rewrite()
	}
	if allocs := testing.AllocsPerRun(500, rewrite); allocs != 0 {
		t.Fatalf("a steady-state typed rewrite allocates %.0f times", allocs)
	}
	m.SubscribeClass("pump", PropertyChanged, func(Event) {})
	rewrite()
	if allocs := testing.AllocsPerRun(500, rewrite); allocs != float64(len(written)) {
		t.Fatalf("a typed rewrite with a PropertyChanged subscriber allocates %.0f times, want %d: one box per property", allocs, len(written))
	}
	if got, _ := m.FindByProp("pump", "name", u.name); len(got) != 2 || !slices.Contains(got, id) {
		t.Fatalf("name %s: %v", u.name, got)
	}
}

func TestEvents(t *testing.T) {
	m := newTestModel(t)
	var created, changed, deleted atomic.Int32
	subC := m.SubscribeClass("motor", ObjectCreated, func(e Event) { created.Add(1) })
	m.SubscribeClass("pump", PropertyChanged, func(e Event) {
		if e.Property == "power_kw" && e.Value == 1.0 {
			changed.Add(1)
		}
	})
	m.SubscribeClass("motor", ObjectDeleted, func(e Event) { deleted.Add(1) })

	id, _ := m.Create("motor", map[string]any{"name": "m"})
	if _, err := m.Create("motor", map[string]any{"name": "n"}); err != nil {
		t.Fatal(err)
	}
	u := &unit{}
	pump, err := m.Create("pump", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(pump, []string{"name", "power_kw"}, func() { u.name, u.powerKW = "p", 1 }); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if created.Load() != 2 || changed.Load() != 1 || deleted.Load() != 1 {
		t.Errorf("events created=%d changed=%d deleted=%d",
			created.Load(), changed.Load(), deleted.Load())
	}
	// Cancel stops delivery.
	subC.Cancel()
	subC.Cancel() // double-cancel is safe
	if _, err := m.Create("motor", nil); err != nil {
		t.Fatal(err)
	}
	if created.Load() != 2 {
		t.Error("cancelled subscription still firing")
	}
}

// TestSubscribeAndCancelInsideHandler: a handler may cancel its own
// subscription and subscribe another while an event is being published. The
// event in flight reaches the subscribers there were when it was published;
// the next one reaches the new set.
func TestSubscribeAndCancelInsideHandler(t *testing.T) {
	m := newTestModel(t)
	first, second := 0, 0
	var sub *Subscription
	sub = m.SubscribeClass("motor", ObjectCreated, func(Event) {
		first++
		sub.Cancel()
		m.SubscribeClass("motor", ObjectCreated, func(Event) { second++ })
	})
	for i := 0; i < 2; i++ {
		if _, err := m.Create("motor", nil); err != nil {
			t.Fatal(err)
		}
	}
	if first != 1 || second != 1 {
		t.Fatalf("the first handler ran %d times and the one it subscribed %d; want 1 and 1", first, second)
	}
}

// TestPublishAllocatesNothing: an event is handed to the current subscribers
// without copying their list.
func TestPublishAllocatesNothing(t *testing.T) {
	m := newTestModel(t)
	n := 0
	m.SubscribeClass("motor", ObjectUpdated, func(Event) { n++ })
	m.SubscribeClass("motor", ObjectUpdated, func(Event) { n++ })
	e := Event{Kind: ObjectUpdated, Object: ObjectID{Class: "motor", Num: 1}}
	if allocs := testing.AllocsPerRun(100, func() { m.events.publish(e) }); allocs != 0 {
		t.Fatalf("publishing an event allocates %.0f times", allocs)
	}
	if n == 0 {
		t.Fatal("the event reached no subscriber")
	}
}

func TestSubscribeClassFiltering(t *testing.T) {
	m := newTestModel(t)
	var reports atomic.Int32
	m.SubscribeClass("report", ObjectCreated, func(e Event) { reports.Add(1) })
	var motors, deleted atomic.Int32
	m.SubscribeClass("motor", ObjectCreated, func(e Event) { motors.Add(1) })
	m.SubscribeClass("report", ObjectDeleted, func(e Event) { deleted.Add(1) })
	if _, err := m.Create("motor", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("report", map[string]any{"condition": "imbalance", "belief": 0.8}); err != nil {
		t.Fatal(err)
	}
	if reports.Load() != 1 {
		t.Errorf("class filter: %d", reports.Load())
	}
	if motors.Load() != 1 {
		t.Errorf("class filter: %d motors", motors.Load())
	}
	if deleted.Load() != 0 {
		t.Errorf("kind filter: %d deletions", deleted.Load())
	}
}

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		ObjectCreated: "object-created", ObjectDeleted: "object-deleted",
		PropertyChanged: "property-changed", ObjectUpdated: "object-updated",
		EventKind(99): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d: %q", k, k.String())
		}
	}
}

func TestConcurrentCreateAndSubscribe(t *testing.T) {
	m := newTestModel(t)
	var count atomic.Int32
	m.SubscribeClass("motor", ObjectCreated, func(Event) { count.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := m.Create("motor", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if count.Load() != 200 {
		t.Errorf("events %d, want 200", count.Load())
	}
	ids, _ := m.Instances("motor")
	if len(ids) != 200 {
		t.Errorf("instances %d", len(ids))
	}
}

// TestConcurrentWritesKeepIndexExact: writers create, rename and delete
// objects while readers look them up by name — the first lookup builds the
// index mid-stream — and afterwards every lookup equals a scan of what the
// model holds.
func TestConcurrentWritesKeepIndexExact(t *testing.T) {
	m := newTestModel(t)
	names := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u := &unit{name: names[(g+i)%3]}
				id, err := m.Create("pump", u)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Set(id, []string{"name"}, func() { u.name = names[i%3] }); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := m.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := m.FindByProp("pump", "name", names[i%3]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ids, err := m.Instances("pump")
	if err != nil || len(ids) != 100 {
		t.Fatalf("%d objects (%v), want 100", len(ids), err)
	}
	for _, name := range names {
		var want []ObjectID
		for _, id := range ids {
			if props, _ := m.Get(id); props["name"] == name {
				want = append(want, id)
			}
		}
		got, err := m.FindByProp("pump", "name", name)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("name %s: %v (%v), a scan finds %v", name, got, err, want)
		}
	}
}

func BenchmarkPropertyChangeWithSubscriber(b *testing.B) {
	m := newTestModel(b)
	u := &unit{name: "m"}
	id, _ := m.Create("pump", u)
	var n int64
	m.SubscribeClass("pump", PropertyChanged, func(Event) { atomic.AddInt64(&n, 1) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Set(id, []string{"power_kw"}, func() { u.powerKW = float64(i) }); err != nil {
			b.Fatal(err)
		}
	}
}
