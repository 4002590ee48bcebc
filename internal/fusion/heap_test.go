package fusion

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/chiller"
)

// TestBlockHeapBound: at the durable-ingest shape — 128 chillers, their five
// logical failure groups, every condition reported by two knowledge sources —
// the fuser holds each (component, group) block in at most 640 B of heap. A
// block is its sources' masses and a report count and a stamp per member;
// the frames are the fuser's, built once per group.
func TestBlockHeapBound(t *testing.T) {
	const (
		machines         = 128
		maxBytesPerBlock = 640
	)
	groups := Groups{}
	for name, faults := range chiller.FaultGroups() {
		for _, f := range faults {
			groups[name] = append(groups[name], f.String())
		}
	}
	var conds []string
	for _, name := range slices.Sorted(maps.Keys(groups)) {
		conds = append(conds, groups[name]...)
	}
	components := make([]string, machines)
	for m := range components {
		components[m] = fmt.Sprintf("chiller/%d", m+1)
	}
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
