package wnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/chiller"
	"repro/internal/testkit"
)

// TestTrainedWeightsPinned holds SGD's arithmetic to the bit: the step size
// and the weight decay are constants of the package, and a change to either
// or to the order they are applied in moves the SHA-256 in
// testdata/trained_weights.sha256. It digests every parameter
// NewChillerClassifier fits at the benchmark's shape (16 384-sample frames,
// 16 recordings a class, seed 1): per measurement point in AllPoints order,
// the scaler's mean and std, then w1, b1, w2 and b2, each float64 as its
// IEEE-754 bits, big-endian.
func TestTrainedWeightsPinned(t *testing.T) {
	clf, err := NewChillerClassifier(chiller.DefaultConfig(), 16384, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for _, pt := range chiller.AllPoints() {
		n := clf.nets[pt]
		put(n.mean)
		put(n.std)
		for _, row := range n.w1 {
			put(row)
		}
		put(n.b1)
		for _, row := range n.w2 {
			put(row)
		}
		put(n.b2)
	}
	testkit.Lines(t, "testdata/trained_weights.sha256", []string{hex.EncodeToString(h.Sum(nil))})
}
