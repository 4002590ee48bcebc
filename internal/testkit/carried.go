package testkit

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"
)

var timeType = reflect.TypeFor[time.Time]()

// Carried fails t unless restored, rebuilt from live's checkpoint, is
// reflect.DeepEqual to live, and unless every struct field reachable from
// live's type is non-zero somewhere in live. The walk goes through pointers,
// maps (keys and values), slices and arrays; an empty map or slice counts as
// zero, time.Time is a leaf, and sync types and blank fields are not walked.
// A field is named by its path from the root type ("Registry.dcs[].boot");
// skip lists the paths a test leaves zero on purpose.
func Carried(t testing.TB, live, restored any, skip ...string) {
	t.Helper()
	if !reflect.DeepEqual(live, restored) {
		t.Errorf("restored %T differs from the live one", live)
	}
	v := reflect.ValueOf(live)
	w := walker{set: map[string]bool{}, open: map[reflect.Type]bool{}, skip: skip}
	w.walk(v.Type(), v, reflect.Indirect(v).Type().Name())
	for _, p := range slices.Sorted(maps.Keys(w.set)) {
		if !w.set[p] {
			t.Errorf("%s is zero everywhere: set it, or the round trip cannot show the checkpoint carries it", p)
		}
	}
}

type walker struct {
	set  map[string]bool       // field path → non-zero somewhere
	open map[reflect.Type]bool // struct types on the walk's stack, so a recursive type ends
	skip []string
}

// walk visits the fields of type t below path; v is the value there, or
// invalid where the type is reachable but nothing of it is present.
func (w *walker) walk(t reflect.Type, v reflect.Value, path string) {
	switch t.Kind() {
	case reflect.Pointer:
		if v.IsValid() {
			v = v.Elem()
		}
		w.walk(t.Elem(), v, path)
	case reflect.Slice, reflect.Array:
		if !filled(v) {
			w.walk(t.Elem(), reflect.Value{}, path+"[]")
		}
		for i := range length(v) {
			w.walk(t.Elem(), v.Index(i), path+"[]")
		}
	case reflect.Map:
		if !filled(v) {
			w.walk(t.Key(), reflect.Value{}, path+"[key]")
			w.walk(t.Elem(), reflect.Value{}, path+"[]")
			return
		}
		for it := v.MapRange(); it.Next(); {
			w.walk(t.Key(), it.Key(), path+"[key]")
			w.walk(t.Elem(), it.Value(), path+"[]")
		}
	case reflect.Struct:
		if t == timeType || w.open[t] {
			return
		}
		w.open[t] = true
		defer delete(w.open, t)
		for i := range t.NumField() {
			sf := t.Field(i)
			p := path + "." + sf.Name
			if sf.Name == "_" || sf.Type.PkgPath() == "sync" || slices.Contains(w.skip, p) {
				continue
			}
			var f reflect.Value
			if v.IsValid() {
				f = v.Field(i)
			}
			w.set[p] = w.set[p] || filled(f)
			w.walk(sf.Type, f, p)
		}
	}
}

// filled reports whether v holds something: a valid non-zero value and, for
// a map or slice, a non-empty one.
func filled(v reflect.Value) bool {
	return v.IsValid() && !v.IsZero() && length(v) != 0
}

// length is v's length for a map, slice or array, and -1 for anything else.
func length(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Map, reflect.Slice, reflect.Array:
		return v.Len()
	}
	return -1
}
