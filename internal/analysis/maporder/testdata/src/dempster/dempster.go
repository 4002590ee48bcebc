// Package dempster is a testdata stand-in for a determinism-critical
// package (maporder keys on the final import-path segment).
package dempster

import (
	"maps"
	"slices"
	"sort"
)

// Mass mirrors the real dempster.Mass shape: a map guarded by a sorted
// accessor.
type Mass struct {
	m map[uint64]float64
}

// FocalSets is the sanctioned idiom: the one raw map range, feeding a sort
// before anything observable happens.
func (m *Mass) FocalSets() []uint64 {
	keys := make([]uint64, 0, len(m.m))
	//lint:allow maporder keys are sorted before return, so iteration order cannot leak
	for k := range m.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Sum accumulates floats in map order: the finding class this analyzer
// exists for (float addition is not associative).
func (m *Mass) Sum() float64 {
	var total float64
	for _, v := range m.m { // want "direct range over a map"
		total += v
	}
	return total
}

// SumSorted iterates through the accessor: clean.
func (m *Mass) SumSorted() float64 {
	var total float64
	for _, k := range m.FocalSets() {
		total += m.m[k]
	}
	return total
}

// weights shows that named map types are still maps underneath.
type weights map[string]float64

func scale(w weights) {
	for k := range w { // want "direct range over a map"
		w[k] *= 2
	}
}

// Slice iteration has a fixed order; not flagged.
func sums(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// SumKeys ranges the unordered iterator directly: a raw map range by another
// name.
func (m *Mass) SumKeys() float64 {
	var total float64
	for k := range maps.Keys(m.m) { // want "direct range over maps.Keys"
		total += m.m[k]
	}
	for _, v := range maps.All(m.m) { // want "direct range over maps.All"
		total += v
	}
	return total
}

// SumSortedKeys hands the iterator to a sort first: clean, and the idiom the
// sorted accessors are written in.
func (m *Mass) SumSortedKeys() float64 {
	var total float64
	for _, k := range slices.Sorted(maps.Keys(m.m)) {
		total += m.m[k]
	}
	return total
}
