package fusion

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/chiller"
)

// TestBlockHeapBound: at the durable-ingest shape — 128 chillers, their five
// logical failure groups, every condition reported by two knowledge sources —
// the fuser holds each (component, group) block in at most 640 B of heap. A
// block is one entry per (condition, source) and a report count per member;
// the frames are the fuser's, built once per group.
func TestBlockHeapBound(t *testing.T) {
	const (
		machines         = 128
		maxBytesPerBlock = 640
	)
	groups, conds, components := chillerShape(machines)
	df, err := NewDiagnosticFuser(groups)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for m, comp := range components {
		for i, cond := range conds {
			for k, src := range []string{"dc-1", "dc-2"} {
				belief := 0.3 + 0.05*float64((m+i+k)%12)
				if _, err := df.AddReportFrom(comp, cond, src, at.Add(time.Duration(m+i)*time.Minute), belief); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	blocks := len(df.Blocks())
	if want := machines * len(groups); blocks != want {
		t.Fatalf("%d blocks, want %d", blocks, want)
	}
	perBlock := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(blocks)
	t.Logf("%d blocks hold %.0f B of heap each", blocks, perBlock)
	if perBlock > maxBytesPerBlock {
		t.Errorf("%.0f B of heap per block, want at most %d", perBlock, maxBytesPerBlock)
	}
	runtime.KeepAlive(df)
}

// chillerShape is the chiller's failure groups, their conditions in group
// order and the names of n machines.
func chillerShape(n int) (groups Groups, conds, components []string) {
	groups = Groups{}
	for name, faults := range chiller.FaultGroups() {
		for _, f := range faults {
			groups[name] = append(groups[name], f.String())
		}
	}
	for _, name := range slices.Sorted(maps.Keys(groups)) {
		conds = append(conds, groups[name]...)
	}
	components = make([]string, n)
	for m := range components {
		components[m] = fmt.Sprintf("chiller/%d", m+1)
	}
	return groups, conds, components
}

// TestBlockHeapFlatInReports: at TestBlockHeapBound's shape, a block holds
// what each source currently says, so its heap after 100 000 reports is what
// it was after 1 000.
func TestBlockHeapFlatInReports(t *testing.T) {
	const machines = 16
	groups, conds, components := chillerShape(machines)
	sources := []string{"dc-1", "dc-2"}
	// Two collections each time: the first moves the fold scratch sync.Pool
	// holds to its victim cache, the second frees it.
	perBlock := func(reports int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		df, err := NewDiagnosticFuser(groups)
		if err != nil {
			t.Fatal(err)
		}
		at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
		for i := range reports {
			k := i % (machines * len(conds) * len(sources))
			comp, cond, src := components[k/(len(conds)*len(sources))], conds[k/len(sources)%len(conds)], sources[k%len(sources)]
			if _, err := df.AddReportFrom(comp, cond, src, at.Add(time.Duration(i)*time.Second), 0.3+0.05*float64(i%12)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if blocks := len(df.Blocks()); blocks != machines*len(groups) {
			t.Fatalf("%d blocks, want %d", blocks, machines*len(groups))
		}
		runtime.KeepAlive(df)
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(machines*len(groups))
	}
	// A stray allocation elsewhere in the process can only add to one
	// measurement: keep each count's least of three.
	least := func(reports int) float64 {
		return min(perBlock(reports), perBlock(reports), perBlock(reports))
	}
	few, many := least(1000), least(100000)
	t.Logf("heap per block: %.0f B after 1 000 reports, %.0f B after 100 000", few, many)
	if math.Abs(many-few) > 16 {
		t.Errorf("a block holds %.0f B after 100 000 reports and %.0f B after 1 000: it grows with the reports", many, few)
	}
}
