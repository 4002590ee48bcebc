package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The kernels as they were written before they were restructured for
// throughput: one butterfly group at a time after a separate bit-reversal
// pass, one walk over the half spectrum per cepstral coefficient, and every
// DCT coefficient through its phasors. The product kernels must return what
// these return, bit for bit.

// butterfliesRef is the stage-by-stage transform of x in natural order.
func butterfliesRef(p *Plan, x []complex128) {
	bitReverseRef(x)
	for size := 2; size <= len(x); size <<= 1 {
		half := size >> 1
		stride := p.n / size
		for start := 0; start < len(x); start += size {
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			for k := range lo {
				even := lo[k]
				odd := hi[k] * p.tw[k*stride]
				lo[k] = even + odd
				hi[k] = even - odd
			}
		}
	}
}

func bitReverseRef(x []complex128) {
	n := len(x)
	j := 0
	for i := 1; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j &^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// realTransformRef is Plan.RealTransform packing the frame in natural order
// and transforming it with butterfliesRef. Its arguments must be valid.
func realTransformRef(p *Plan, dst []complex128, x, window []float64) {
	m := p.n / 2
	at := func(i int) float64 {
		if window != nil {
			return x[i] * window[i]
		}
		return x[i]
	}
	if m == 0 {
		dst[0] = 0
		if len(x) == 1 {
			dst[0] = complex(at(0), 0)
		}
		return
	}
	z := dst[:m]
	pairs := len(x) / 2
	for i := 0; i < pairs; i++ {
		z[i] = complex(at(2*i), at(2*i+1))
	}
	clear(z[pairs:])
	if len(x)%2 == 1 {
		z[pairs] = complex(at(len(x)-1), 0)
	}
	butterfliesRef(p, z)
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= m/2; k++ {
		a, b := z[k], cmplx.Conj(z[m-k])
		e := (a + b) * 0.5
		o := (a - b) * complex(0, -0.5)
		w := p.tw[k]
		dst[k] = e + w*o
		dst[m-k] = cmplx.Conj(e - w*o)
	}
}

// cepstralRef is Plan.Cepstral with one walk over the half spectrum per
// coefficient. Its arguments must be valid.
func cepstralRef(p *Plan, out []float64, bins []complex128, frame []float64, first int) {
	realTransformRef(p, bins, frame, nil)
	for b, c := range bins {
		power := real(c)*real(c) + imag(c)*imag(c)
		if power < cepstrumFloor*cepstrumFloor {
			power = cepstrumFloor * cepstrumFloor
		}
		bins[b] = complex(0.5*math.Log(power), 0)
	}
	n, m := p.n, p.n/2
	for i := range out {
		q := first + i
		edges := real(bins[0])
		if m > 0 {
			if q%2 == 0 {
				edges += real(bins[m])
			} else {
				edges -= real(bins[m])
			}
		}
		var interior float64
		idx := 0
		for _, l := range bins[1:max(m, 1)] {
			idx = (idx + q) & (n - 1)
			c := real(p.tw[idx&(m-1)])
			if idx&m != 0 {
				c = -c
			}
			interior += real(l) * c
		}
		out[i] = (edges + 2*interior) / float64(n)
	}
}

// dct2IntoRef is DCT2Into with coefficient 0 summed through its phasors
// like every other coefficient, one coefficient per walk.
func dct2IntoRef(out, x []float64) {
	n := len(x)
	if n == 0 {
		clear(out)
		return
	}
	for c := range out {
		w := math.Pi / float64(n) * float64(c)
		sin, cos := math.Sincos(w)
		step := complex(cos, sin)
		stride := step * step
		var sum float64
		for start := 0; start < n; start += dctBlock {
			block := x[start:min(start+dctBlock, n)]
			sin, cos := math.Sincos(w * (float64(start) + 0.5))
			even := complex(cos, sin)
			odd := even * step
			i := 0
			for ; i+1 < len(block); i += 2 {
				sum += block[i] * real(even)
				sum += block[i+1] * real(odd)
				even *= stride
				odd *= stride
			}
			if i < len(block) {
				sum += block[i] * real(even)
			}
		}
		out[c] = sum / float64(n)
	}
}

// fuzzFrame is n samples: seeded unit noise (seed 0: all +0, seed −1: all
// −0) with patches applied. Each ten bytes of patches are a sample index,
// taken modulo n, and that sample's IEEE-754 bits, so a short input puts NaN,
// ±Inf, ±0, subnormals or huge values anywhere in a frame of any length.
func fuzzFrame(n int, seed int64, patches []byte) []float64 {
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

// patchBytes encodes (index, value) patches for fuzzFrame.
func patchBytes(kv ...any) []byte {
	var b []byte
	for i := 0; i+1 < len(kv); i += 2 {
		b = binary.LittleEndian.AppendUint16(b, uint16(kv[i].(int)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(kv[i+1].(float64)))
	}
	return b
}

// specialPatches puts NaN, ±Inf, ±0, the largest and the smallest
// subnormal value at spread-out samples.
var specialPatches = patchBytes(
	1, math.NaN(), 5, math.Inf(1), 9, math.Inf(-1), 12, math.Copysign(0, -1),
	17, 0.0, 100, math.MaxFloat64, 300, 5e-324, 4000, -math.MaxFloat64)

// sameFloats reports where got and want first differ in their IEEE-754
// bits, or "" when every value agrees. Two NaNs agree whatever their
// payloads: which operand's payload an operation on two NaNs keeps is the
// hardware's choice, and the compiler orders the operands of a commutative
// add or multiply as it likes, so the payload is not part of a result.
func sameFloats(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return fmt.Sprintf("value %d = %v (%#016x), reference %v (%#016x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// complexParts flattens z into its real and imaginary parts.
func complexParts(z []complex128) []float64 {
	out := make([]float64, 0, 2*len(z))
	for _, c := range z {
		out = append(out, real(c), imag(c))
	}
	return out
}

// FuzzTransformMatchesReference requires Transform, and RealTransform with
// and without a window, to return what the stage-by-stage reference returns,
// bit for bit, at every power-of-two length up to the DC's frame and every
// frame length a plan pads.
func FuzzTransformMatchesReference(f *testing.F) {
	for logn := range uint8(15) {
		f.Add(int64(logn)+1, logn, uint16(0), specialPatches)
		f.Add(int64(logn)+1, logn, uint16(logn)*37+1, []byte(nil))
		f.Add(int64(-1), logn, uint16(1), []byte(nil))
		f.Add(int64(0), logn, uint16(0), patchBytes(3, math.Copysign(0, -1)))
	}
	f.Fuzz(func(t *testing.T, seed int64, logn uint8, cut uint16, patches []byte) {
		n := 1 << (logn % 15)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		parts := fuzzFrame(2*n, seed, patches)
		got, want := make([]complex128, n), make([]complex128, n)
		for i := range got {
			got[i] = complex(parts[2*i], parts[2*i+1])
		}
		copy(want, got)
		if err := p.Transform(got); err != nil {
			t.Fatal(err)
		}
		butterfliesRef(p, want)
		if d := sameFloats(complexParts(got), complexParts(want)); d != "" {
			t.Fatalf("Transform n=%d: %s", n, d)
		}
		frame := parts[:n-int(cut)%n]
		for _, window := range [][]float64{nil, Window(Hann, len(frame))} {
			got, want := make([]complex128, n/2+1), make([]complex128, n/2+1)
			if err := p.RealTransform(got, frame, window); err != nil {
				t.Fatal(err)
			}
			realTransformRef(p, want, frame, window)
			if d := sameFloats(complexParts(got), complexParts(want)); d != "" {
				t.Fatalf("RealTransform n=%d frame %d windowed=%v: %s", n, len(frame), window != nil, d)
			}
		}
	})
}

// FuzzCepstralMatchesReference requires Cepstral's blocked walk to return
// every coefficient, and the log-spectrum it leaves in bins, bit for bit as
// one walk per coefficient does.
func FuzzCepstralMatchesReference(f *testing.F) {
	for logn := range uint8(15) {
		n := uint16(1) << logn
		f.Add(int64(logn)+1, n-1, uint16(1), uint8(8), specialPatches)
		f.Add(int64(logn)+1, n/2+uint16(logn), uint16(0), uint8(16), []byte(nil))
		f.Add(int64(0), n-1, uint16(3), uint8(5), []byte(nil))
	}
	f.Add(int64(7), uint16(11999), uint16(1), uint8(8), specialPatches)
	f.Fuzz(func(t *testing.T, seed int64, length, first uint16, count uint8, patches []byte) {
		frame := fuzzFrame(1+int(length)%16384, seed, patches)
		p, err := NewPlan(NextPow2(len(frame)))
		if err != nil {
			t.Fatal(err)
		}
		q := int(first) % p.n
		k := min(int(count)%17, p.n-q)
		got, want := make([]float64, k), make([]float64, k)
		gotBins, wantBins := make([]complex128, p.n/2+1), make([]complex128, p.n/2+1)
		if err := p.Cepstral(got, gotBins, frame, q); err != nil {
			t.Fatal(err)
		}
		cepstralRef(p, want, wantBins, frame, q)
		if d := sameFloats(complexParts(gotBins), complexParts(wantBins)); d != "" {
			t.Fatalf("frame %d: log-spectrum %s", len(frame), d)
		}
		if d := sameFloats(got, want); d != "" {
			t.Fatalf("frame %d, coefficients %d…: %s", len(frame), q, d)
		}
	})
}

// FuzzDCT2MatchesReference requires DCT2Into, coefficient 0 summed plainly,
// to return what every coefficient through its phasors returns, bit for bit.
func FuzzDCT2MatchesReference(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 3, 255, 256, 257, 511, 12000, 16384} {
		f.Add(int64(n)+1, n, uint8(8), specialPatches)
		f.Add(int64(-1), n, uint8(3), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, seed int64, length uint16, count uint8, patches []byte) {
		x := fuzzFrame(int(length)%16385, seed, patches)
		k := int(count) % 12
		got, want := make([]float64, k), make([]float64, k)
		DCT2Into(got, x)
		dct2IntoRef(want, x)
		if d := sameFloats(got, want); d != "" {
			t.Fatalf("frame %d: %s", len(x), d)
		}
	})
}

// BenchmarkKernelsAgainstReference times each restructured kernel beside its
// reference on the DC's 16 384-sample frame, in one binary.
func BenchmarkKernelsAgainstReference(b *testing.B) {
	x := noise(16384, 7)
	p, err := NewPlan(len(x))
	if err != nil {
		b.Fatal(err)
	}
	window := Window(Hann, len(x))
	bins := make([]complex128, len(x)/2+1)
	out := make([]float64, 8)
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"RealTransform/kernel", func() { _ = p.RealTransform(bins, x, window) }},
		{"RealTransform/reference", func() { realTransformRef(p, bins, x, window) }},
		{"Cepstral/kernel", func() { _ = p.Cepstral(out, bins, x, 1) }},
		{"Cepstral/reference", func() { cepstralRef(p, out, bins, x, 1) }},
		{"DCT2Into/kernel", func() { DCT2Into(out, x) }},
		{"DCT2Into/reference", func() { dct2IntoRef(out, x) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for range b.N {
				k.f()
			}
		})
	}
}
