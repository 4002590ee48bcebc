package oosm

import (
	"fmt"
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

// TestListWritesRefuseBadLists: CreateWith and Set refuse a property list that
// is out of order, names a property twice, names one the class lacks or holds
// a value of the wrong type. A refused write creates nothing, uses no serial,
// changes no row or index and publishes no event.
func TestListWritesRefuseBadLists(t *testing.T) {
	m := newTestModel(t)
	log := logEvents(m, "motor")
	id, err := m.CreateWith("motor", []Prop{{"name", "m1"}, {"poles", int64(4)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FindByProp("motor", "poles", int64(4)); err != nil {
		t.Fatal(err)
	}
	row, _ := m.Get(id)
	events := len(log.events)
	for _, bad := range []struct {
		what  string
		props []Prop
	}{
		{"unsorted", []Prop{{"poles", int64(2)}, {"name", "m2"}}},
		{"duplicate", []Prop{{"name", "m2"}, {"name", "m3"}}},
		{"unknown", []Prop{{"name", "m2"}, {"ghost", "x"}, {"poles", int64(2)}}},
		{"past last", []Prop{{"running", true}, {"zzz", 1.0}}},
		{"wrong type", []Prop{{"name", "m2"}, {"poles", 2}}},
		{"late type", []Prop{{"name", "m2"}, {"poles", int64(2)}, {"power_kw", "oops"}}},
	} {
		if _, err := m.CreateWith("motor", bad.props, nil); err == nil {
			t.Errorf("CreateWith took a list %s: %v", bad.what, bad.props)
		}
		if err := m.Set(id, bad.props); err == nil {
			t.Errorf("Set took a list %s: %v", bad.what, bad.props)
		}
	}
	if got, _ := m.Get(id); !reflect.DeepEqual(got, row) {
		t.Errorf("refused writes changed the row: %v, was %v", got, row)
	}
	if ids, _ := m.Instances("motor"); len(ids) != 1 {
		t.Errorf("refused creates left objects: %v", ids)
	}
	if ids, _ := m.FindByProp("motor", "poles", int64(2)); len(ids) != 0 {
		t.Errorf("refused writes filed objects under poles 2: %v", ids)
	}
	if ids, _ := m.FindByProp("motor", "poles", int64(4)); !reflect.DeepEqual(ids, []ObjectID{id}) {
		t.Errorf("refused writes moved the object out of poles 4: %v", ids)
	}
	if len(log.events) != events {
		t.Errorf("refused writes published %v", log.events[events:])
	}
	next, err := m.CreateWith("motor", nil, nil)
	if err != nil || next.Num != id.Num+1 {
		t.Errorf("the create after the refused ones got %v (%v), want serial %d", next, err, id.Num+1)
	}
}

// TestMapWritesMatchListWrites: Create and SetProps, handed a random subset of
// a class's properties as a map, leave the same rows, index hits and event
// sequence as CreateWith and Set handed the same subset as a sorted list — and
// a map naming a property the class lacks is refused with the error the list
// naming it gets.
func TestMapWritesMatchListWrites(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			byMap, byList := newTestModel(t), newTestModel(t)
			mapLog, listLog := logEvents(byMap, "motor"), logEvents(byList, "motor")
			t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
			values := map[string][]any{
				"name":      {nil, "m1", "m2", "m3"},
				"power_kw":  {nil, 0.0, 75.0, 110.5},
				"poles":     {nil, int64(2), int64(4)},
				"running":   {nil, false, true},
				"installed": {nil, t0, t0.Add(time.Hour)},
				"ghost":     {"x"},
			}
			names := []string{"ghost", "installed", "name", "poles", "power_kw", "running"}
			// Index two properties before the writes; the rest are indexed
			// after them, at the end.
			for _, m := range []*Model{byMap, byList} {
				for _, prop := range []string{"poles", "name"} {
					if _, err := m.FindByProp("motor", prop, values[prop][1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			var live []ObjectID
			for op := 0; op < 400; op++ {
				asMap := map[string]any{}
				var asList []Prop
				for _, name := range names {
					if name == "ghost" && rng.Intn(20) != 0 || rng.Intn(2) == 0 {
						continue
					}
					v := values[name][rng.Intn(len(values[name]))]
					asMap[name] = v
					asList = append(asList, Prop{name, v})
				}
				var errMap, errList error
				switch {
				case len(live) == 0 || rng.Intn(3) == 0:
					var a, b ObjectID
					a, errMap = byMap.Create("motor", asMap)
					b, errList = byList.CreateWith("motor", asList, nil)
					if a != b {
						t.Fatalf("op %d: Create made %v, CreateWith %v", op, a, b)
					}
					if errMap == nil {
						live = append(live, a)
					}
				case rng.Intn(8) == 0:
					at := rng.Intn(len(live))
					errMap, errList = byMap.Delete(live[at]), byList.Delete(live[at])
					live = slices.Delete(live, at, at+1)
					asMap = nil
				default:
					id := live[rng.Intn(len(live))]
					errMap, errList = byMap.SetProps(id, asMap), byList.Set(id, asList)
				}
				if fmt.Sprint(errMap) != fmt.Sprint(errList) {
					t.Fatalf("op %d: the map write answered %v, the list write %v", op, errMap, errList)
				}
				if _, ghost := asMap["ghost"]; ghost && errMap == nil {
					t.Fatalf("op %d: a write naming ghost was taken", op)
				}
			}
			for _, id := range live {
				a, errA := byMap.Get(id)
				b, errB := byList.Get(id)
				if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
					t.Fatalf("%v: map writes left %v (%v), list writes %v (%v)", id, a, errA, b, errB)
				}
			}
			for _, name := range names[1:] {
				for _, v := range values[name] {
					if v == nil {
						continue
					}
					a, errA := byMap.FindByProp("motor", name, v)
					b, errB := byList.FindByProp("motor", name, v)
					if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
						t.Fatalf("FindByProp(%s = %v): %v (%v) by map, %v (%v) by list", name, v, a, errA, b, errB)
					}
				}
			}
			if !reflect.DeepEqual(mapLog.events, listLog.events) {
				t.Fatalf("the event sequences differ: %d events by map, %d by list", len(mapLog.events), len(listLog.events))
			}
			if len(mapLog.events) == 0 {
				t.Fatal("no events")
			}
		})
	}
}
