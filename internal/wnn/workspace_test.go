package wnn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chiller"
	"repro/internal/dsp"
)

// TestWorkspaceReuseMatchesExtract guards scratch reuse across the whole
// feature vector — waveform statistics, cepstral, DCT and wavelet map: one
// workspace over one plan, fed different frames in interleaved order,
// returns for each, bit for bit, what a fresh one-shot Extract returns.
func TestWorkspaceReuseMatchesExtract(t *testing.T) {
	fc := DefaultFeatureConfig()
	for _, n := range []int{1024, 3000, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		noisy := make([]float64, n)
		tone := make([]float64, n)
		impulse := make([]float64, n)
		for i := range noisy {
			noisy[i] = rng.NormFloat64()
			tone[i] = 2 * math.Sin(float64(i)/7)
		}
		impulse[n/3] = 7
		frames := [][]float64{noisy, make([]float64, n), impulse, tone}
		plan, err := dsp.NewPlan(dsp.NextPow2(n))
		if err != nil {
			t.Fatal(err)
		}
		ws, err := newWorkspace(plan, n, fc, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step, fi := range []int{0, 1, 2, 0, 3, 3, 1, 0} {
			want, err := Extract(frames[fi], fc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.extract(frames[fi], dsp.Waveform(frames[fi]))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d step %d (frame %d): reused workspace %v != one-shot %v", n, step, fi, got, want)
			}
		}
		if _, err := ws.extract(make([]float64, n-1), dsp.WaveformStats{}); err == nil {
			t.Errorf("n=%d: wrong-length frame accepted", n)
		}
	}
}

func TestWorkspaceRejectsUnfittingConfig(t *testing.T) {
	plan, err := dsp.NewPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range []FeatureConfig{
		{NumCepstral: 64, NumDCT: 8, WaveletLevels: 2},
		{NumCepstral: 8, NumDCT: 65, WaveletLevels: 2},
		{NumCepstral: -1, NumDCT: 8, WaveletLevels: 2},
		{NumCepstral: 8, NumDCT: 8, WaveletLevels: 7},
	} {
		if _, err := newWorkspace(plan, 64, fc, nil); err == nil {
			t.Errorf("%+v accepted for a 64-sample frame", fc)
		}
	}
}

// TestClassifyZeroAlloc is the hot-path budget for the third knowledge
// source: a warm Classify — pooled workspace, features, network — allocates
// nothing. The best of several single runs counts because a collection may
// empty the pool and the race detector makes sync.Pool drop puts at random;
// either costs one workspace rebuild.
func TestClassifyZeroAlloc(t *testing.T) {
	cfg := chiller.DefaultConfig()
	clf, err := NewChillerClassifier(cfg, 4096, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := plant.AcquireVibration(chiller.Compressor, 4096)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for try := 0; try < 64 && best != 0; try++ {
		best = min(best, testing.AllocsPerRun(1, func() {
			if _, err := clf.Classify(frame, chiller.Compressor); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if best != 0 {
		t.Errorf("warm Classify allocates %.1f times per frame, want 0", best)
	}
}

// TestClassifyOnMatchesClassify checks the held-workspace form: one
// workspace fed every point's frame in turn calls each as Classify does,
// allocates nothing, and is refused by another classifier.
func TestClassifyOnMatchesClassify(t *testing.T) {
	cfg := chiller.DefaultConfig()
	clf, err := NewChillerClassifier(cfg, 4096, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plant.SetFault(chiller.GearToothWear, 0.8); err != nil {
		t.Fatal(err)
	}
	ws, err := clf.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range chiller.AllPoints() {
		frame, err := plant.AcquireVibration(pt, 4096)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clf.Classify(frame, pt)
		if err != nil {
			t.Fatal(err)
		}
		st := dsp.Waveform(frame)
		got, err := clf.ClassifyOn(ws, frame, st, pt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: ClassifyOn %+v, Classify %+v", pt, got, want)
		}
		if allocs := testing.AllocsPerRun(4, func() {
			if _, err := clf.ClassifyOn(ws, frame, st, pt); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: ClassifyOn allocates %.1f times per frame, want 0", pt, allocs)
		}
	}
	other, err := NewChillerClassifier(cfg, 4096, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := plant.AcquireVibration(chiller.GearBox, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ClassifyOn(ws, frame, dsp.Waveform(frame), chiller.GearBox); err == nil {
		t.Error("another classifier's workspace accepted")
	}
}

// TestPredictMatchesAcrossScratch checks that scratch sized for a wider
// network serves a narrower one: same class and probabilities as the
// one-shot Predict.
func TestPredictMatchesAcrossScratch(t *testing.T) {
	n, err := NewNetwork(5, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -1, 2, 0, 0.5}
	wantCls, wantProbs, err := n.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	wide := newActivations(5, 9, 4)
	for range 2 {
		cls, probs, err := n.predict(wide, x)
		if err != nil {
			t.Fatal(err)
		}
		if cls != wantCls || !slices.Equal(probs, wantProbs) {
			t.Fatalf("shared scratch: class %d %v, one-shot %d %v", cls, probs, wantCls, wantProbs)
		}
	}
}
