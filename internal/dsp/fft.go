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
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of x in place using an
// iterative radix-2 Cooley-Tukey algorithm. The length of x must be a power
// of two; use NextPow2 and ZeroPad to prepare arbitrary-length frames.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	bitReverse(x)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		wn := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := x[start+k]
				odd := x[start+k+half] * w
				x[start+k] = even + odd
				x[start+k+half] = even - odd
				w *= wn
			}
		}
	}
	return nil
}

// IFFT computes the inverse discrete Fourier transform of x in place,
// including the 1/N normalization. The length of x must be a power of two.
func IFFT(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	inv := 1 / float64(n)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * complex(inv, 0)
	}
	return nil
}

// bitReverse permutes x into bit-reversed index order.
func bitReverse(x []complex128) {
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

// NextPow2 returns the smallest power of two >= n, and 1 for n <= 0.
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ZeroPad returns x copied into a new slice of length n (n >= len(x)),
// padded with zeros. It panics if n < len(x).
func ZeroPad(x []float64, n int) []float64 {
	if n < len(x) {
		panic("dsp: ZeroPad target shorter than input")
	}
	out := make([]float64, n)
	copy(out, x)
	return out
}

// ToComplex converts a real-valued frame to a complex slice suitable for FFT.
func ToComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}
