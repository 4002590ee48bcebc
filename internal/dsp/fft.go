// Package dsp provides the digital signal processing substrate used by the
// MPROS data concentrator analyzers: FFT and power spectra, window functions,
// cepstrum, DCT, RMS/envelope detection, peak finding and order tracking.
//
// The paper's Data Concentrator carries a 4-channel PCMCIA spectrum analyzer
// sampling above 40 kHz; every vibration-based diagnostic technique in MPROS
// (the DLI expert system's FFT analysis, SBFR's feature channels, the wavelet
// neural network's feature extraction) consumes the primitives in this
// package.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan is a radix-2 transform planned for one power-of-two length: it holds
// the twiddle table e^(−j2πk/n), k < n/2, each entry computed directly
// rather than by recurrence, so rounding does not accumulate with n. A plan
// is immutable after construction and safe to share between goroutines; the
// buffers it transforms belong to the caller.
type Plan struct {
	n  int
	tw []complex128
}

// NewPlan plans transforms of length n, which must be a power of two.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	p := &Plan{n: n, tw: make([]complex128, n/2)}
	// Only the first octant is evaluated; the rest of the half turn follows
	// by reflection about π/4 and then about π/2, which is exact.
	tw := p.tw
	half, quarter, eighth := n/2, n/4, n/8
	for k := 0; k <= eighth && k < half; k++ {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, -s)
	}
	for k := eighth + 1; k <= quarter && k < half; k++ {
		r := tw[quarter-k]
		tw[k] = complex(-imag(r), -real(r))
	}
	for k := quarter + 1; k < half; k++ {
		r := tw[half-k]
		tw[k] = complex(-real(r), imag(r))
	}
	return p, nil
}

// Len returns the planned transform length.
func (p *Plan) Len() int { return p.n }

// butterflies is the package's one decimation-in-time butterfly body over x
// in bit-reversed order. len(x) is the plan's length or half of it (the
// real-input entry); a stage of size s reads e^(−j2πk/s) from the table at
// stride n/s. The stages of size 2 and 4 run as one flat pass over groups of
// four values, and every later pair of stages as one pass that loads and
// stores each value once: stage s on both halves of a group of 2s, then stage
// 2s across them. Every value still sees the butterflies of a textbook
// stage-by-stage transform, the same multiplies and adds in the same order;
// only butterflies that do not depend on each other change places.
func (p *Plan) butterflies(x []complex128) {
	n := len(x)
	if n < 2 {
		return
	}
	w0 := p.tw[0]
	if n == 2 {
		e, o := x[0], x[1]*w0
		x[0], x[1] = e+o, e-o
		return
	}
	w1 := p.tw[p.n/4]
	for s := 0; s+4 <= n; s += 4 {
		q := x[s : s+4 : s+4]
		o0 := q[1] * w0
		a0, a1 := q[0]+o0, q[0]-o0
		o1 := q[3] * w0
		a2, a3 := q[2]+o1, q[2]-o1
		t0 := a2 * w0
		q[0], q[2] = a0+t0, a0-t0
		t1 := a3 * w1
		q[1], q[3] = a1+t1, a1-t1
	}
	size := 8
	// Two stages per pass: stage s on the group's halves, then stage 2s
	// across them, four values loaded and stored once.
	for ; 2*size <= n; size <<= 2 {
		half := size >> 1
		strideA, strideB := p.n/size, p.n/(2*size)
		for start := 0; start+2*size <= n; start += 2 * size {
			g := x[start : start+2*size : start+2*size]
			q0 := g[:half:half]
			q1 := g[half:size:size]
			q2 := g[size : size+half : size+half]
			q3 := g[size+half:]
			q1, q2, q3 = q1[:len(q0)], q2[:len(q0)], q3[:len(q0)]
			for k := range q0 {
				wa := p.tw[k*strideA]
				o := q1[k] * wa
				a0, a1 := q0[k]+o, q0[k]-o
				o = q3[k] * wa
				a2, a3 := q2[k]+o, q2[k]-o
				o = a2 * p.tw[k*strideB]
				q0[k], q2[k] = a0+o, a0-o
				o = a3 * p.tw[(k+half)*strideB]
				q1[k], q3[k] = a1+o, a1-o
			}
		}
	}
	for ; size <= n; size <<= 1 {
		half := size >> 1
		stride := p.n / size
		for start := 0; start+size <= n; start += size {
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			hi = hi[:len(lo)]
			for k := range lo {
				even := lo[k]
				odd := hi[k] * p.tw[k*stride]
				lo[k] = even + odd
				hi[k] = even - odd
			}
		}
	}
}

// RealTransform computes the one-sided spectrum X[0…n/2] of the real frame
// x, multiplied sample by sample by window when it is not nil and
// zero-padded to the plan's length, into dst, which must hold n/2+1 values.
// The n real samples are packed into n/2 complex ones, transformed at half
// length and unpacked in place, which costs about half a complex transform
// of the same frame.
func (p *Plan) RealTransform(dst []complex128, x, window []float64) error {
	m := p.n / 2
	if len(dst) != m+1 {
		return fmt.Errorf("dsp: spectrum buffer of %d bins, plan for %d samples needs %d", len(dst), p.n, m+1)
	}
	if len(x) > p.n {
		return fmt.Errorf("dsp: frame of %d samples on a plan for %d", len(x), p.n)
	}
	if window != nil && len(window) != len(x) {
		return fmt.Errorf("dsp: window of %d coefficients for a frame of %d samples", len(window), len(x))
	}
	if m == 0 {
		dst[0] = 0
		if len(x) == 1 {
			v := x[0]
			if window != nil {
				v *= window[0]
			}
			dst[0] = complex(v, 0)
		}
		return nil
	}
	// Slot j of the half-length transform's bit-reversed input takes the
	// sample pair reversed(j): gathered in place, so the transform needs no
	// permutation pass, and written in order.
	z := dst[:m]
	shift := 64 - bits.TrailingZeros(uint(m))
	pairs := len(x) / 2
	for j := range z {
		i := reversed(j, shift)
		switch {
		case i < pairs:
			s := x[2*i : 2*i+2 : 2*i+2]
			if window == nil {
				z[j] = complex(s[0], s[1])
			} else {
				w := window[2*i : 2*i+2 : 2*i+2]
				z[j] = complex(s[0]*w[0], s[1]*w[1])
			}
		case i == pairs && len(x)%2 == 1:
			v := x[len(x)-1]
			if window != nil {
				v *= window[len(x)-1]
			}
			z[j] = complex(v, 0)
		default:
			z[j] = 0
		}
	}
	p.butterflies(z)
	// With E and O the transforms of the even and odd samples,
	// Z[k] = E[k] + jO[k] and X[k] = E[k] + e^(−j2πk/n)·O[k]; bins k and
	// m−k are separated together because each needs the other's Z.
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= m/2; k++ {
		a, b := z[k], cmplx.Conj(z[m-k])
		e := (a + b) * 0.5
		o := (a - b) * complex(0, -0.5)
		w := p.tw[k]
		dst[k] = e + w*o
		// e^(−j2π(m−k)/n) = −conj(w), E[m−k] = conj(E[k]), O[m−k] = conj(O[k]).
		dst[m-k] = cmplx.Conj(e - w*o)
	}
	return nil
}

// reversed is i with its low 64−shift bits in reverse order: its slot in a
// bit-reversed permutation of 2^(64−shift) values.
func reversed(i, shift int) int { return int(bits.Reverse64(uint64(i)) >> shift) }

// NextPow2 returns the smallest power of two >= n, and 1 for n <= 0.
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
