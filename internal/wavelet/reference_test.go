package wavelet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// transformIntoRef is one DWT level as it was written before the interior
// outputs were split from the wrapped ones: every tap of every output pays
// the modulo. transformInto must return what it returns, bit for bit.
func transformIntoRef(low, high, x, approx, detail []float64) {
	n := len(x)
	half := n / 2
	for i := 0; i < half; i++ {
		var a, d float64
		for j := 0; j < len(low); j++ {
			v := x[(2*i+j)%n]
			a += low[j] * v
			d += high[j] * v
		}
		approx[i] = a
		detail[i] = d
	}
}

// fuzzSignal is n samples: seeded unit noise (seed 0: all +0, seed −1: all
// −0) with patches applied. Each ten bytes of patches are a sample index,
// taken modulo n, and that sample's IEEE-754 bits.
func fuzzSignal(n int, seed int64, patches []byte) []float64 {
	x := make([]float64, n)
	switch seed {
	case 0:
	case -1:
		for i := range x {
			x[i] = math.Copysign(0, -1)
		}
	default:
		rng := rand.New(rand.NewSource(seed))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	}
	for ; n > 0 && len(patches) >= 10; patches = patches[10:] {
		i := int(binary.LittleEndian.Uint16(patches)) % n
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(patches[2:]))
	}
	return x
}

// specialPatches puts NaN, ±Inf, −0 and the extremes at the first samples,
// so even a frame no longer than the filter carries them.
var specialPatches = func() []byte {
	var b []byte
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), math.Inf(-1),
		math.MaxFloat64, 5e-324, -math.MaxFloat64} {
		b = binary.LittleEndian.AppendUint16(b, uint16(i*3))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}()

// sameFloats reports where got and want first differ in their IEEE-754
// bits, or "" when every value agrees. Two NaNs agree whatever their
// payloads: which operand's payload an operation on two NaNs keeps is the
// hardware's choice, and the compiler orders the operands of a commutative
// add or multiply as it likes.
func sameFloats(got, want []float64) string {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return fmt.Sprintf("value %d = %v (%#016x), reference %v (%#016x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// FuzzTransformIntoMatchesReference requires one DWT level of either family
// to return what the all-modulo reference returns, bit for bit, on frames of
// any length: even and odd, shorter than, as long as and longer than the
// filter, and every power of two up to the DC's frame.
func FuzzTransformIntoMatchesReference(f *testing.F) {
	for n := uint16(0); n <= 9; n++ {
		f.Add(int64(n)+1, n, specialPatches)
		f.Add(int64(-1), n, []byte(nil))
	}
	for n := uint16(16); n <= 16384; n <<= 1 {
		f.Add(int64(n), n, specialPatches)
		f.Add(int64(n)+1, n+1, []byte(nil))
	}
	f.Add(int64(3), uint16(12000), specialPatches)
	f.Fuzz(func(t *testing.T, seed int64, length uint16, patches []byte) {
		x := fuzzSignal(int(length)%16385, seed, patches)
		for _, k := range []Kind{Haar, Daubechies4} {
			low, err := k.filters()
			if err != nil {
				t.Fatal(err)
			}
			high := highPass(low)
			half := len(x) / 2
			got, want := make([]float64, 2*half), make([]float64, 2*half)
			transformInto(low, high, x, got[:half], got[half:])
			transformIntoRef(low, high, x, want[:half], want[half:])
			if d := sameFloats(got, want); d != "" {
				t.Fatalf("%v on %d samples: %s", k, len(x), d)
			}
		}
	})
}

// BenchmarkTransformAgainstReference times a 6-level db4 decomposition of
// the DC's 16 384-sample frame with the kernel and with the reference.
func BenchmarkTransformAgainstReference(b *testing.B) {
	x := fuzzSignal(16384, 7, nil)
	w, err := NewWorkspace(Daubechies4, len(x), 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name string
		f    func(low, high, x, approx, detail []float64)
	}{{"kernel", transformInto}, {"reference", transformIntoRef}} {
		b.Run(k.name, func(b *testing.B) {
			for range b.N {
				src := x
				for l := range w.levels {
					k.f(w.low, w.high, src, w.approxes[l], w.details[l])
					src = w.approxes[l]
				}
			}
		})
	}
}
