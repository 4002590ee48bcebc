package sbfr

import (
	"testing"

	"repro/internal/ema"
)

// DESIGN.md ablation: bytecode interpretation vs native Go closures. The
// paper chose an interpreter because new machines "may be downloaded into
// the smart sensor" at run time (§6.3) and because bytecode is what fits in
// 32 KB; the ablation quantifies what that flexibility costs in cycle time
// against a hand-compiled native implementation of the same two machines.

// nativeEMA is the Figure 3 system hand-written as Go code: the upper bound
// on interpreter performance.
type nativeEMA struct {
	// Spike machine.
	spikeState  int // 0 Wait, 1 PossibleSpike1, 2 PossibleSpike2, 3 Spike
	spikeElaps  float64
	spikeStatus float64
	// Stiction machine.
	stictState  int // 0 Wait, 1 Stiction
	stictStatus float64
	count       float64 // local.0
	window      float64 // local.1
	prevCur     float64
	prevCPOS    float64
	started     bool
}

func (n *nativeEMA) cycle(current, cpos float64) {
	dCur, dPOS := 0.0, 0.0
	if n.started {
		dCur = current - n.prevCur
		dPOS = cpos - n.prevCPOS
	}
	n.prevCur, n.prevCPOS = current, cpos
	n.started = true

	// Spike machine (first matching transition fires).
	fired := false
	switch n.spikeState {
	case 0:
		if dCur > 0.5 {
			n.spikeState, fired = 1, true
		}
	case 1:
		switch {
		case dCur < -0.5 && n.spikeElaps <= 4:
			n.spikeStatus = float64(int64(n.spikeStatus) | 1)
			n.spikeState, fired = 3, true
		case dCur > 0.5 && n.spikeElaps <= 4:
			n.spikeState, fired = 2, true
		case n.spikeElaps > 4:
			n.spikeState, fired = 0, true
		}
	case 2:
		switch {
		case dCur < -0.5 && n.spikeElaps <= 4:
			n.spikeStatus = float64(int64(n.spikeStatus) | 1)
			n.spikeState, fired = 3, true
		case n.spikeElaps > 4:
			n.spikeState, fired = 0, true
		}
	case 3:
		if n.spikeStatus == 0 {
			n.spikeState, fired = 0, true
		}
	}
	if fired {
		n.spikeElaps = 0
	} else {
		n.spikeElaps++
	}

	// Stiction machine.
	switch n.stictState {
	case 0:
		switch {
		case dPOS != 0:
			n.window = 8
		case n.spikeStatus != 0 && n.window > 0:
			n.spikeStatus = 0
			n.window--
		case n.spikeStatus != 0:
			n.spikeStatus = 0
			n.count++
		case n.count > 4:
			n.stictStatus = float64(int64(n.stictStatus) | 1)
			n.stictState = 1
		case n.window > 0:
			n.window--
		}
	case 1:
		if n.stictStatus == 0 {
			n.count = 0
			n.stictState = 0
		}
	}
}

// TestNativeMatchesBytecode drives both implementations over identical
// stimulus and checks they flag stiction on the same runs.
func TestNativeMatchesBytecode(t *testing.T) {
	scenarios := []struct {
		name   string
		events []ema.Event
	}{
		{"healthy", ema.HealthyScenario(10, 12, 20)},
		{"stiction", ema.StictionScenario(10, 6, 20)},
		{"mixed", ema.MergeEvents(ema.HealthyScenario(10, 5, 50), ema.StictionScenario(30, 6, 50))},
	}
	for _, sc := range scenarios {
		sys, err := NewEMASystem()
		if err != nil {
			t.Fatal(err)
		}
		nat := &nativeEMA{}
		sim, err := ema.NewSimulator(ema.DefaultConfig(), sc.events)
		if err != nil {
			t.Fatal(err)
		}
		vmFlag, natFlag := false, false
		for i := 0; i < 400; i++ {
			s := sim.Step()
			if err := sys.Cycle([]float64{s.Current, s.CPOS}); err != nil {
				t.Fatal(err)
			}
			nat.cycle(s.Current, s.CPOS)
			if st, _ := sys.Status("Stiction"); st != 0 {
				vmFlag = true
			}
			if nat.stictStatus != 0 {
				natFlag = true
			}
		}
		if vmFlag != natFlag {
			t.Errorf("%s: vm=%v native=%v", sc.name, vmFlag, natFlag)
		}
		vmCount, _ := sys.LocalOf("Stiction", 0)
		if vmCount != nat.count {
			t.Errorf("%s: vm count %g native %g", sc.name, vmCount, nat.count)
		}
	}
}

func BenchmarkAblationBytecodeVM(b *testing.B) {
	sys, err := NewEMASystem()
	if err != nil {
		b.Fatal(err)
	}
	sim, err := ema.NewSimulator(ema.DefaultConfig(), ema.StictionScenario(5, 100, 7))
	if err != nil {
		b.Fatal(err)
	}
	samples := sim.Run(4096)
	in := make([]float64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		in[0], in[1] = s.Current, s.CPOS
		if err := sys.Cycle(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNativeClosures(b *testing.B) {
	nat := &nativeEMA{}
	sim, err := ema.NewSimulator(ema.DefaultConfig(), ema.StictionScenario(5, 100, 7))
	if err != nil {
		b.Fatal(err)
	}
	samples := sim.Run(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		nat.cycle(s.Current, s.CPOS)
	}
}
