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
	cs := m.Classes()
	if len(cs) != 5 {
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
	v, err := m.GetProp(id, "power_kw")
	if err != nil || v != 75.0 {
		t.Errorf("GetProp %v %v", v, err)
	}
	if _, err := m.GetProp(id, "ghost"); err == nil {
		t.Error("ghost property")
	}
	if err := m.SetProps(id, map[string]any{"running": false}); err != nil {
		t.Fatal(err)
	}
	v, _ = m.GetProp(id, "running")
	if v != false {
		t.Error("SetProps lost")
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
	id, err := m.Create("motor", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetProps(id, map[string]any{"poles": 4}); err == nil {
		t.Error("int (not int64) should be rejected")
	}
	if err := m.SetProps(ObjectID{Class: "ghost", Num: 1}, nil); err == nil {
		t.Error("SetProps unknown class")
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
	if _, err := m.Instances("ghost"); err == nil {
		t.Error("instances of unknown class")
	}
}

// TestModelHoldsItsObjects: the model holds one object per Create and none
// after its Delete; a map Get returned is the caller's to change; and
// FindByProp stays exact — on a property indexed before the writes and on one
// indexed after them — when SetProps moves an object from one value to
// another.
func TestModelHoldsItsObjects(t *testing.T) {
	m := newTestModel(t)
	var made []ObjectID
	for i := 0; i < 6; i++ {
		id, err := m.Create("chiller", map[string]any{"name": fmt.Sprintf("c%d", i%3), "capacity_tons": float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		made = append(made, id)
	}
	if ids, err := m.Instances("chiller"); err != nil || !slices.Equal(ids, made) {
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
	if ids, _ := m.Instances("chiller"); !slices.Equal(ids, slices.Delete(slices.Clone(made), 1, 2)) {
		t.Fatalf("instances after a Delete: %v", ids)
	}

	props, err := m.Get(made[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 3 || props["name"] != "c0" || props["capacity_tons"] != 0.0 || props["manufacturer"] != nil {
		t.Fatalf("Get %v, want every property, null ones nil", props)
	}
	props["name"] = "changed"
	delete(props, "capacity_tons")
	if again, _ := m.Get(made[0]); again["name"] != "c0" || again["capacity_tons"] != 0.0 {
		t.Fatalf("changing Get's map changed the object: %v", again)
	}

	find := func(prop string, v any) []ObjectID {
		t.Helper()
		ids, err := m.FindByProp("chiller", prop, v)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	// "name" is indexed from here on; "capacity_tons" only after the writes.
	if got := find("name", "c0"); !slices.Equal(got, []ObjectID{made[0], made[3]}) {
		t.Fatalf("name c0: %v", got)
	}
	if err := m.SetProps(made[0], map[string]any{"name": "c2", "capacity_tons": 5.0}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProps(made[4], map[string]any{"name": nil}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prop string
		v    any
		want []ObjectID
	}{
		{"name", "c0", []ObjectID{made[3]}},
		{"name", "c1", nil},
		{"name", "c2", []ObjectID{made[0], made[2], made[5]}},
		{"name", nil, []ObjectID{made[4]}},
		{"capacity_tons", 5.0, []ObjectID{made[0], made[5]}},
		{"capacity_tons", math.Copysign(0, -1), nil},
		{"capacity_tons", math.NaN(), nil},
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
	if got := find("capacity_tons", 5.0); !slices.Equal(got, []ObjectID{made[0]}) {
		t.Errorf("capacity 5 after a Delete: %v", got)
	}
	if _, err := m.FindByProp("chiller", "name", 1.0); err == nil {
		t.Error("FindByProp with a value of the wrong type")
	}
	if _, err := m.FindByProp("chiller", "ghost", "x"); err == nil {
		t.Error("FindByProp on an unknown property")
	}
}

// TestCreateGetAllocBudget: a steady-state Create + Get + Delete of an object
// with an indexed property allocates the row, the map Get hands over, and
// nothing per property beyond them; GetProp copies nothing.
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
	id, err := m.Create("report", props)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.GetProp(id, "condition"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("GetProp allocates %.0f times", allocs)
	}
}

func TestEvents(t *testing.T) {
	m := newTestModel(t)
	var created, changed, deleted atomic.Int32
	subC := m.SubscribeClass("motor", ObjectCreated, func(e Event) { created.Add(1) })
	m.SubscribeClass("motor", PropertyChanged, func(e Event) {
		if e.Property == "running" {
			changed.Add(1)
		}
	})
	m.SubscribeClass("motor", ObjectDeleted, func(e Event) { deleted.Add(1) })

	id, _ := m.Create("motor", map[string]any{"name": "m"})
	if _, err := m.Create("motor", map[string]any{"name": "n"}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProps(id, map[string]any{"running": true, "power_kw": 1.0}); err != nil {
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
				id, err := m.Create("motor", map[string]any{"name": names[(g+i)%3]})
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.SetProps(id, map[string]any{"name": names[i%3]}); err != nil {
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
				if _, err := m.FindByProp("motor", "name", names[i%3]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ids, err := m.Instances("motor")
	if err != nil || len(ids) != 100 {
		t.Fatalf("%d objects (%v), want 100", len(ids), err)
	}
	for _, name := range names {
		var want []ObjectID
		for _, id := range ids {
			if v, _ := m.GetProp(id, "name"); v == name {
				want = append(want, id)
			}
		}
		got, err := m.FindByProp("motor", "name", name)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("name %s: %v (%v), a scan finds %v", name, got, err, want)
		}
	}
}

func BenchmarkPropertyChangeWithSubscriber(b *testing.B) {
	m := newTestModel(b)
	id, _ := m.Create("motor", map[string]any{"name": "m"})
	var n int64
	m.SubscribeClass("motor", PropertyChanged, func(Event) { atomic.AddInt64(&n, 1) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.SetProps(id, map[string]any{"power_kw": float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
