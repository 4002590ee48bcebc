package wnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Network is a wavelet neural network classifier: an input standardization
// layer, one hidden layer of wavelon units with Mexican-hat activation
// ψ(u) = (1-u²)·exp(-u²/2), and a softmax output layer. The localized,
// zero-mean wavelet activation gives the multi-resolution behaviour of
// §6.2; everything else is a standard feed-forward classifier trained by
// SGD with cross-entropy loss.
type Network struct {
	inDim, hidden, classes int

	// Standardization (fit on the training set).
	mean, std []float64

	// w1[h][i], b1[h]: input -> wavelon pre-activation.
	w1 [][]float64
	b1 []float64
	// w2[c][h], b2[c]: wavelon -> class logits.
	w2 [][]float64
	b2 []float64

	rng *rand.Rand
}

// NewNetwork builds an untrained network.
func NewNetwork(inputDim, hidden, classes int, seed int64) (*Network, error) {
	if inputDim < 1 || hidden < 1 || classes < 2 {
		return nil, fmt.Errorf("wnn: invalid dimensions %d/%d/%d", inputDim, hidden, classes)
	}
	n := &Network{
		inDim: inputDim, hidden: hidden, classes: classes,
		mean: make([]float64, inputDim),
		std:  make([]float64, inputDim),
		b1:   make([]float64, hidden),
		b2:   make([]float64, classes),
		rng:  rand.New(rand.NewSource(seed)),
	}
	for i := range n.std {
		n.std[i] = 1
	}
	scale1 := 1 / math.Sqrt(float64(inputDim))
	n.w1 = make([][]float64, hidden)
	for h := range n.w1 {
		n.w1[h] = make([]float64, inputDim)
		for i := range n.w1[h] {
			n.w1[h][i] = n.rng.NormFloat64() * scale1
		}
		n.b1[h] = n.rng.NormFloat64() * 0.5
	}
	scale2 := 1 / math.Sqrt(float64(hidden))
	n.w2 = make([][]float64, classes)
	for c := range n.w2 {
		n.w2[c] = make([]float64, hidden)
		for h := range n.w2[c] {
			n.w2[c][h] = n.rng.NormFloat64() * scale2
		}
	}
	return n, nil
}

// mexicanHat is the wavelon activation and its derivative.
func mexicanHat(u float64) (float64, float64) {
	e := math.Exp(-u * u / 2)
	psi := (1 - u*u) * e
	dpsi := (u*u*u - 3*u) * e
	return psi, dpsi
}

// standardize maps x into z-score space using the fitted statistics,
// writing into z.
func (n *Network) standardize(z, x []float64) {
	for i := range x {
		z[i] = (x[i] - n.mean[i]) / n.std[i]
	}
}

// fitScaler computes per-feature mean and std over the training set.
func (n *Network) fitScaler(samples [][]float64) {
	m := len(samples)
	for i := 0; i < n.inDim; i++ {
		var sum float64
		for _, s := range samples {
			sum += s[i]
		}
		mu := sum / float64(m)
		var varsum float64
		for _, s := range samples {
			d := s[i] - mu
			varsum += d * d
		}
		sd := math.Sqrt(varsum / float64(m))
		if sd < 1e-9 {
			sd = 1
		}
		n.mean[i] = mu
		n.std[i] = sd
	}
}

// activations is the scratch of one forward pass: the standardized input,
// the wavelon outputs and their derivatives, and the class logits and
// probabilities. Train and Predict run the same forward body over one. A
// network uses the leading part of each buffer, so one scratch sized for the
// largest of several networks serves them all.
type activations struct {
	z, hid, dhid, logits, probs []float64
}

func newActivations(inDim, hidden, classes int) *activations {
	return &activations{
		z:      make([]float64, inDim),
		hid:    make([]float64, hidden),
		dhid:   make([]float64, hidden),
		logits: make([]float64, classes),
		probs:  make([]float64, classes),
	}
}

// forward computes hidden activations, their derivatives, and class
// probabilities for the standardized input z. The results alias a.
func (n *Network) forward(a *activations, z []float64) (hid, dhid, probs []float64) {
	hid, dhid = a.hid[:n.hidden], a.dhid[:n.hidden]
	for h := 0; h < n.hidden; h++ {
		u := n.b1[h]
		w := n.w1[h]
		for i, zi := range z {
			u += w[i] * zi
		}
		hid[h], dhid[h] = mexicanHat(u)
	}
	logits := a.logits[:n.classes]
	maxLogit := math.Inf(-1)
	for c := 0; c < n.classes; c++ {
		v := n.b2[c]
		w := n.w2[c]
		for h, act := range hid {
			v += w[h] * act
		}
		logits[c] = v
		if v > maxLogit {
			maxLogit = v
		}
	}
	probs = a.probs[:n.classes]
	var sum float64
	for c, v := range logits {
		p := math.Exp(v - maxLogit)
		probs[c] = p
		sum += p
	}
	for c := range probs {
		probs[c] /= sum
	}
	return hid, dhid, probs
}

// SGD's step size and weight decay are constants, adequate for the
// diagnostic corpora in this repository.
const (
	learningRate = 0.02
	l2           = 1e-4
)

// TrainOptions configures SGD.
type TrainOptions struct {
	// Epochs is the number of full passes over the training set.
	Epochs int
}

// DefaultTrainOptions returns the epoch count the chiller classifier trains
// for.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 60}
}

// Train fits the network on samples with integer class labels. It fits the
// input scaler, then runs SGD with per-epoch shuffling, and returns the
// mean cross-entropy of the final epoch.
func (n *Network) Train(samples [][]float64, labels []int, opt TrainOptions) (float64, error) {
	if len(samples) == 0 || len(samples) != len(labels) {
		return 0, fmt.Errorf("wnn: %d samples, %d labels", len(samples), len(labels))
	}
	for i, s := range samples {
		if len(s) != n.inDim {
			return 0, fmt.Errorf("wnn: sample %d has dim %d, want %d", i, len(s), n.inDim)
		}
		if labels[i] < 0 || labels[i] >= n.classes {
			return 0, fmt.Errorf("wnn: label %d out of range", labels[i])
		}
	}
	if opt.Epochs < 1 {
		return 0, fmt.Errorf("wnn: invalid training options %+v", opt)
	}
	n.fitScaler(samples)
	zs := make([][]float64, len(samples))
	for i, s := range samples {
		zs[i] = make([]float64, n.inDim)
		n.standardize(zs[i], s)
	}
	a := newActivations(n.inDim, n.hidden, n.classes)
	dlogit := make([]float64, n.classes)
	dhidden := make([]float64, n.hidden)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var epochLoss float64
	for e := 0; e < opt.Epochs; e++ {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for _, idx := range order {
			z := zs[idx]
			y := labels[idx]
			hid, dhid, probs := n.forward(a, z)
			epochLoss += -math.Log(math.Max(probs[y], 1e-12))
			// Output layer gradient: dL/dlogit_c = p_c - 1{c==y}.
			for c := range dlogit {
				dlogit[c] = probs[c]
				if c == y {
					dlogit[c] -= 1
				}
			}
			// Hidden gradient.
			clear(dhidden)
			for c := 0; c < n.classes; c++ {
				g := dlogit[c]
				w := n.w2[c]
				for h := 0; h < n.hidden; h++ {
					dhidden[h] += g * w[h]
				}
			}
			// Update output layer.
			for c := 0; c < n.classes; c++ {
				g := dlogit[c]
				w := n.w2[c]
				for h := 0; h < n.hidden; h++ {
					w[h] -= learningRate * (g*hid[h] + l2*w[h])
				}
				n.b2[c] -= learningRate * g
			}
			// Update wavelon layer through the activation derivative.
			for h := 0; h < n.hidden; h++ {
				g := dhidden[h] * dhid[h]
				if g == 0 {
					continue
				}
				w := n.w1[h]
				for i, zi := range z {
					w[i] -= learningRate * (g*zi + l2*w[i])
				}
				n.b1[h] -= learningRate * g
			}
		}
		epochLoss /= float64(len(samples))
	}
	return epochLoss, nil
}

// predict runs x through the network on a's scratch and returns the most
// probable class and the probability vector, which aliases a.
func (n *Network) predict(a *activations, x []float64) (int, []float64, error) {
	if len(x) != n.inDim {
		return 0, nil, fmt.Errorf("wnn: input dim %d, want %d", len(x), n.inDim)
	}
	z := a.z[:n.inDim]
	n.standardize(z, x)
	_, _, probs := n.forward(a, z)
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	return best, probs, nil
}
