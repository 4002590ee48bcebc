package oosm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// eventLog records every event of one class, of every kind, in order.
type eventLog struct{ events []Event }

func logEvents(m *Model, class string) *eventLog {
	l := &eventLog{}
	for _, k := range []EventKind{ObjectCreated, ObjectDeleted, PropertyChanged, ObjectUpdated} {
		m.SubscribeClass(class, k, func(e Event) { l.events = append(l.events, e) })
	}
	return l
}

// TestListWritesRefuseBadLists: Set refuses a list of property names that is
// out of order, names a property twice or names one the class lacks, and
// Create refuses a value its class does not hold — a typed class anything but
// a non-nil *T, a map-declared one a map naming a property it lacks or holding
// a value of the wrong type. A refused write creates nothing, uses no serial,
// runs no write function, changes no object or index and publishes no event.
func TestListWritesRefuseBadLists(t *testing.T) {
	m := newTestModel(t)
	pumpLog, motorLog := logEvents(m, "pump"), logEvents(m, "motor")
	u := &unit{name: "p1", powerKW: 4}
	id, err := m.Create("pump", u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FindByProp("pump", "power_kw", 4.0); err != nil {
		t.Fatal(err)
	}
	props, _ := m.Get(id)
	events := len(pumpLog.events)
	for _, bad := range [][]string{
		{"power_kw", "name"},
		{"name", "name"},
		{"ghost", "name"},
		{"name", "zzz"},
	} {
		if err := m.Set(id, bad, func() { u.name, u.powerKW = "p2", 2 }); err == nil {
			t.Errorf("Set took the names %v", bad)
		}
	}
	for _, bad := range []any{nil, (*unit)(nil), unit{}, "p2", map[string]any{"name": "p2"}} {
		if _, err := m.Create("pump", bad); err == nil {
			t.Errorf("the typed class took %#v", bad)
		}
	}
	for _, bad := range []any{
		u,
		map[string]any{"name": "m2", "ghost": "x", "poles": int64(2)},
		map[string]any{"running": true, "zzz": 1.0},
		map[string]any{"name": "m2", "poles": 2},
		map[string]any{"name": "m2", "poles": int64(2), "power_kw": "oops"},
	} {
		if _, err := m.Create("motor", bad); err == nil {
			t.Errorf("the map-declared class took %#v", bad)
		}
	}
	if got, _ := m.Get(id); !reflect.DeepEqual(got, props) {
		t.Errorf("refused writes changed the object: %v, was %v", got, props)
	}
	if ids, _ := m.Instances("pump"); len(ids) != 1 {
		t.Errorf("refused creates left objects: %v", ids)
	}
	if ids, _ := m.FindByProp("pump", "power_kw", 2.0); len(ids) != 0 {
		t.Errorf("refused writes filed objects under power 2: %v", ids)
	}
	if ids, _ := m.FindByProp("pump", "power_kw", 4.0); !reflect.DeepEqual(ids, []ObjectID{id}) {
		t.Errorf("refused writes moved the object out of power 4: %v", ids)
	}
	if len(pumpLog.events) != events || len(motorLog.events) != 0 {
		t.Errorf("refused writes published %v and %v", pumpLog.events[events:], motorLog.events)
	}
	next, err := m.Create("pump", &unit{})
	if err != nil || next.Num != id.Num+1 {
		t.Errorf("the create after the refused ones got %v (%v), want serial %d", next, err, id.Num+1)
	}
	if first, err := m.Create("motor", nil); err != nil || first.Num != 1 {
		t.Errorf("the first motor after the refused ones got %v (%v), want serial 1", first, err)
	}
}

// TestMapWritesMatchListWrites: a typed class and a map-declared class with
// the same schema, fed the same seeded creates — some refused — and deletes,
// leave the same Get maps, FindByProp hits, event sequences and errors. Then
// the typed class's rewrites (Set, which lists the properties it writes) leave
// the Get maps, hits and events a reference of the writes predicts.
func TestMapWritesMatchListWrites(t *testing.T) {
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	values := map[string][]any{
		"name":      {"m1", "m2", "m3"},
		"power_kw":  {0.0, math.Copysign(0, -1), 75.0, 110.5},
		"installed": {t0, t0.Add(time.Hour), t0.In(time.FixedZone("ship", 3600))},
	}
	names := []string{"installed", "name", "power_kw"}
	pick := func(rng *rand.Rand) map[string]any {
		out := map[string]any{}
		for _, name := range names {
			out[name] = values[name][rng.Intn(len(values[name]))]
		}
		return out
	}
	asUnit := func(props map[string]any) *unit {
		return &unit{name: props["name"].(string), powerKW: props["power_kw"].(float64), installed: props["installed"].(time.Time)}
	}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			typed, mapped := newTestModel(t), newTestModel(t)
			for m, c := range map[*Model]Class{typed: {Name: "unit", Fields: unitFields}, mapped: {Name: "unit", Props: unitProps}} {
				if err := m.RegisterClass(c); err != nil {
					t.Fatal(err)
				}
			}
			typedLog, mapLog := logEvents(typed, "unit"), logEvents(mapped, "unit")
			// Index two properties before the writes; the last is indexed
			// after them, at the end.
			for _, m := range []*Model{typed, mapped} {
				for _, prop := range []string{"power_kw", "name"} {
					if _, err := m.FindByProp("unit", prop, values[prop][1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			held := map[ObjectID]*unit{}
			want := map[ObjectID]map[string]any{}
			var live []ObjectID
			for op := 0; op < 400; op++ {
				var errTyped, errMap error
				sameText := false // a delete's refusal reads the same from either class
				switch {
				case len(live) == 0 || rng.Intn(3) == 0:
					props := pick(rng)
					var u any = asUnit(props)
					if rng.Intn(10) == 0 { // a value neither class holds
						u, props["ghost"] = *u.(*unit), "x"
					}
					var a, b ObjectID
					a, errTyped = typed.Create("unit", u)
					b, errMap = mapped.Create("unit", props)
					if a != b {
						t.Fatalf("op %d: the typed class made %v, the map-declared one %v", op, a, b)
					}
					if errTyped == nil {
						live, held[a], want[a] = append(live, a), u.(*unit), props
					}
				case rng.Intn(8) == 0:
					id := ObjectID{Class: "unit", Num: 1000 + int64(op)}
					if rng.Intn(2) == 0 {
						at := rng.Intn(len(live))
						id = live[at]
						live = slices.Delete(live, at, at+1)
						delete(want, id)
					}
					errTyped, errMap, sameText = typed.Delete(id), mapped.Delete(id), true
				}
				if (errTyped == nil) != (errMap == nil) || sameText && fmt.Sprint(errTyped) != fmt.Sprint(errMap) {
					t.Fatalf("op %d: the typed write answered %v, the map write %v", op, errTyped, errMap)
				}
			}
			for _, id := range live {
				a, errA := typed.Get(id)
				b, errB := mapped.Get(id)
				if errA != nil || errB != nil || !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, want[id]) {
					t.Fatalf("%v: typed %v (%v), map-declared %v (%v), written %v", id, a, errA, b, errB, want[id])
				}
			}
			for i, e := range typedLog.events {
				if e.Kind == ObjectCreated {
					if e.Value != any(held[e.Object]) {
						t.Fatalf("%v created carrying %v, not the value it holds", e.Object, e.Value)
					}
					typedLog.events[i].Value = nil
				}
			}
			if !reflect.DeepEqual(typedLog.events, mapLog.events) || len(mapLog.events) == 0 {
				t.Fatalf("the event sequences differ: %d events typed, %d map-declared", len(typedLog.events), len(mapLog.events))
			}
			checkHits := func(what string) {
				t.Helper()
				for _, name := range names {
					for _, v := range values[name] {
						var scan []ObjectID
						for _, id := range live { // in creation order
							if equal(want[id][name], v) {
								scan = append(scan, id)
							}
						}
						a, errA := typed.FindByProp("unit", name, v)
						if errA != nil || !slices.Equal(a, scan) {
							t.Fatalf("%s: FindByProp(%s = %v) typed: %v (%v), want %v", what, name, v, a, errA, scan)
						}
						if what == "creates" {
							if b, _ := mapped.FindByProp("unit", name, v); !slices.Equal(a, b) {
								t.Fatalf("FindByProp(%s = %v): typed %v, map-declared %v", name, v, a, b)
							}
						}
					}
				}
			}
			checkHits("creates")

			// Rewrites, on the typed class alone: its map-declared twin's
			// objects are written whole by Create.
			typedLog.events = typedLog.events[:0]
			var expect []Event
			for op := 0; op < 200 && len(live) > 0; op++ {
				id := live[rng.Intn(len(live))]
				u, next := held[id], pick(rng)
				var props []string
				for _, name := range names {
					if rng.Intn(2) == 0 {
						props = append(props, name)
					}
				}
				if rng.Intn(10) == 0 && len(props) > 1 { // out of order: refused
					slices.Reverse(props)
					if err := typed.Set(id, props, func() { *u = *asUnit(next) }); err == nil {
						t.Fatalf("op %d: Set took the names %v", op, props)
					}
					continue
				}
				err := typed.Set(id, props, func() {
					for _, name := range props {
						switch name {
						case "name":
							u.name = next[name].(string)
						case "power_kw":
							u.powerKW = next[name].(float64)
						case "installed":
							u.installed = next[name].(time.Time)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range props {
					want[id][name] = next[name]
					expect = append(expect, Event{Kind: PropertyChanged, Object: id, Property: name, Value: next[name]})
				}
				expect = append(expect, Event{Kind: ObjectUpdated, Object: id, Value: u})
			}
			for _, id := range live {
				if got, err := typed.Get(id); err != nil || !reflect.DeepEqual(got, want[id]) {
					t.Fatalf("%v after rewrites: %v (%v), written %v", id, got, err, want[id])
				}
			}
			if !reflect.DeepEqual(typedLog.events, expect) {
				t.Fatalf("rewrites published %d events, want %d", len(typedLog.events), len(expect))
			}
			checkHits("rewrites")
		})
	}
}

// equal is a property value's equality: == but for times, which are equal
// when Equal.
func equal(a, b any) bool {
	if at, ok := a.(time.Time); ok {
		bt, ok := b.(time.Time)
		return ok && at.Equal(bt)
	}
	return a == b
}
