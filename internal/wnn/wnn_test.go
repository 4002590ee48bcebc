package wnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chiller"
	"repro/internal/dsp"
)

func TestFeatureDim(t *testing.T) {
	fc := DefaultFeatureConfig()
	frame := make([]float64, 4096)
	for i := range frame {
		frame[i] = math.Sin(float64(i) / 5)
	}
	f, err := Extract(frame, fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != fc.Dim() {
		t.Fatalf("feature dim %d, declared %d", len(f), fc.Dim())
	}
	if _, err := Extract(make([]float64, 16), fc); err == nil {
		t.Error("short frame should error")
	}
	// Features are finite.
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %d not finite: %g", i, v)
		}
	}
}

func TestFeaturesSeparateTransientFromSteady(t *testing.T) {
	// §6.2: the WNN "will excel in drawing conclusions from transitory
	// phenomena rather than steady state data". The wavelet-map features
	// must separate an impulsive transient from a steady tone of equal RMS.
	fc := DefaultFeatureConfig()
	steady := make([]float64, 4096)
	transient := make([]float64, 4096)
	for i := range steady {
		steady[i] = math.Sin(2 * math.Pi * float64(i) * 0.03)
	}
	// Sparse impulses, scaled to match RMS.
	for i := 0; i < len(transient); i += 512 {
		for j := 0; j < 8 && i+j < len(transient); j++ {
			transient[i+j] = 16 * math.Exp(-float64(j)) * math.Sin(float64(j))
		}
	}
	fs, err := Extract(steady, fc)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Extract(transient, fc)
	if err != nil {
		t.Fatal(err)
	}
	// Crest factor (index 2) and kurtosis (index 3) must be much larger for
	// the transient.
	if ft[2] < 3*fs[2] {
		t.Errorf("crest factor does not separate: steady %g transient %g", fs[2], ft[2])
	}
	if ft[3] < 3*fs[3] {
		t.Errorf("kurtosis does not separate: steady %g transient %g", fs[3], ft[3])
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0, 4, 2, 1); err == nil {
		t.Error("zero input dim")
	}
	if _, err := NewNetwork(4, 0, 2, 1); err == nil {
		t.Error("zero hidden")
	}
	if _, err := NewNetwork(4, 4, 1, 1); err == nil {
		t.Error("single class")
	}
	n, err := NewNetwork(3, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(nil, nil, DefaultTrainOptions()); err == nil {
		t.Error("empty training set")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []int{0}, DefaultTrainOptions()); err == nil {
		t.Error("wrong sample dim")
	}
	if _, err := n.Train([][]float64{{1, 2, 3}}, []int{5}, DefaultTrainOptions()); err == nil {
		t.Error("label out of range")
	}
	if _, err := n.Train([][]float64{{1, 2, 3}}, []int{0}, TrainOptions{Epochs: 0}); err == nil {
		t.Error("zero epochs")
	}
	if _, _, err := n.Predict([]float64{1}); err == nil {
		t.Error("wrong predict dim")
	}
	if _, err := n.Accuracy(nil, nil); err == nil {
		t.Error("empty accuracy set")
	}
}

func TestLearnsLinearlySeparableClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var samples [][]float64
	var labels []int
	for i := 0; i < 300; i++ {
		c := i % 3
		center := []float64{0, 0}
		switch c {
		case 0:
			center = []float64{3, 0}
		case 1:
			center = []float64{-3, 2}
		case 2:
			center = []float64{0, -4}
		}
		samples = append(samples, []float64{
			center[0] + rng.NormFloat64()*0.5,
			center[1] + rng.NormFloat64()*0.5,
		})
		labels = append(labels, c)
	}
	n, err := NewNetwork(2, 12, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := n.Train(samples, labels, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.3 {
		t.Errorf("final loss %g too high", loss)
	}
	acc, err := n.Accuracy(samples, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Errorf("training accuracy %g < 0.95", acc)
	}
}

func TestLearnsXORNonlinearity(t *testing.T) {
	// The wavelon layer must solve a problem a linear model cannot.
	var samples [][]float64
	var labels []int
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		x := float64(rng.Intn(2))*2 - 1
		y := float64(rng.Intn(2))*2 - 1
		label := 0
		if x*y > 0 {
			label = 1
		}
		samples = append(samples, []float64{x + rng.NormFloat64()*0.2, y + rng.NormFloat64()*0.2})
		labels = append(labels, label)
	}
	n, err := NewNetwork(2, 16, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultTrainOptions()
	opt.Epochs = 150
	if _, err := n.Train(samples, labels, opt); err != nil {
		t.Fatal(err)
	}
	acc, err := n.Accuracy(samples, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("XOR accuracy %g < 0.9", acc)
	}
}

func TestSoftmaxIsDistributionProperty(t *testing.T) {
	n, err := NewNetwork(4, 8, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		_, probs, err := n.Predict([]float64{
			math.Mod(a, 100), math.Mod(b, 100), math.Mod(c, 100), math.Mod(d, 100),
		})
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range probs {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMexicanHat(t *testing.T) {
	// ψ(0) = 1, ψ(±1) = 0 at... no: ψ(1) = 0? (1-1)e^{-1/2} = 0. Yes.
	if psi, _ := mexicanHat(0); psi != 1 {
		t.Errorf("ψ(0) = %g", psi)
	}
	if psi, _ := mexicanHat(1); math.Abs(psi) > 1e-12 {
		t.Errorf("ψ(1) = %g", psi)
	}
	// Numerically verify the derivative.
	for _, u := range []float64{-2, -0.5, 0.3, 1.7} {
		_, d := mexicanHat(u)
		h := 1e-6
		p1, _ := mexicanHat(u + h)
		p0, _ := mexicanHat(u - h)
		if math.Abs(d-(p1-p0)/(2*h)) > 1e-5 {
			t.Errorf("dψ(%g) = %g, numeric %g", u, d, (p1-p0)/(2*h))
		}
	}
}

// TestChillerFaultClassification trains the WNN on simulator frames and
// verifies it classifies held-out frames well above chance — the §6.2
// fault-classifier role.
func TestChillerFaultClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("training corpus generation is slow")
	}
	fc := DefaultFeatureConfig()
	classes := []chiller.Fault{chiller.MotorImbalance, chiller.MotorBearingOuter, chiller.GearToothWear}
	frameLen := 4096

	build := func(seedBase int64, perClass int) ([][]float64, []int) {
		var xs [][]float64
		var ys []int
		for ci, f := range classes {
			for k := 0; k < perClass; k++ {
				cfg := chiller.DefaultConfig()
				cfg.Seed = seedBase + int64(ci*1000+k)
				p, err := chiller.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.SetFault(f, 0.5+0.5*float64(k%5)/5); err != nil {
					t.Fatal(err)
				}
				pt := chiller.MotorDE
				if f == chiller.GearToothWear {
					pt = chiller.GearBox
				}
				frame, err := p.AcquireVibration(pt, frameLen)
				if err != nil {
					t.Fatal(err)
				}
				x, err := Extract(frame, fc)
				if err != nil {
					t.Fatal(err)
				}
				xs = append(xs, x)
				ys = append(ys, ci)
			}
		}
		return xs, ys
	}

	trainX, trainY := build(1, 30)
	testX, testY := build(50000, 10)
	n, err := NewNetwork(fc.Dim(), 20, len(classes), 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultTrainOptions()
	opt.Epochs = 80
	if _, err := n.Train(trainX, trainY, opt); err != nil {
		t.Fatal(err)
	}
	acc, err := n.Accuracy(testX, testY)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("held-out accuracy %.2f < 0.8", acc)
	}
	t.Logf("held-out accuracy: %.2f", acc)
}

// The one-shot forms the tests hold the classifier's reused scratch to: a
// fresh plan and workspace per frame, fresh activations per prediction.

// Extract computes the feature vector for one waveform frame. It is the
// one-shot form of the classifier's feature path: a fresh transform plan and
// workspace sized for this frame run once.
func Extract(frame []float64, fc FeatureConfig) ([]float64, error) {
	plan, err := dsp.NewPlan(dsp.NextPow2(len(frame)))
	if err != nil {
		return nil, err
	}
	ws, err := newWorkspace(plan, len(frame), fc, nil)
	if err != nil {
		return nil, err
	}
	return ws.extract(frame, dsp.Waveform(frame))
}

// Predict returns the most probable class and the full probability vector.
// It is the one-shot form of predict over fresh scratch.
func (n *Network) Predict(x []float64) (int, []float64, error) {
	return n.predict(newActivations(n.inDim, n.hidden, n.classes), x)
}

// Accuracy evaluates top-1 accuracy over a labelled set.
func (n *Network) Accuracy(samples [][]float64, labels []int) (float64, error) {
	if len(samples) == 0 || len(samples) != len(labels) {
		return 0, fmt.Errorf("wnn: %d samples, %d labels", len(samples), len(labels))
	}
	correct := 0
	for i, s := range samples {
		c, _, err := n.Predict(s)
		if err != nil {
			return 0, err
		}
		if c == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}
