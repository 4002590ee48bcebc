package dsp

import (
	"fmt"
	"math"
)

// cepstrumFloor bounds bin magnitudes from below before the logarithm.
const cepstrumFloor = 1e-12

// Cepstral writes coefficients first … first+len(out)−1 of the real cepstrum
// IFFT(log|FFT(frame)|) into out, zero-padding frame to the plan's length.
// bins is scratch for the one-sided spectrum and must hold Len/2+1 values.
// The log-spectrum of a real frame is even, so it is taken on bins 0…n/2 of
// the real-input transform only and each coefficient is one cosine sum over
// that half, with cosines read from the plan's table: O(n) per coefficient,
// no inverse transform and no n-length result — the shape the WNN feature
// vector, which keeps a handful of coefficients, wants. The sums are taken
// cepstralBlock coefficients to a walk over the half spectrum, so that
// independent add chains overlap; each sum still runs in bin order, so every
// coefficient is what a walk of its own gives, bit for bit.
func (p *Plan) Cepstral(out []float64, bins []complex128, frame []float64, first int) error {
	if len(frame) == 0 {
		return fmt.Errorf("dsp: empty frame")
	}
	if first < 0 || first+len(out) > p.n {
		return fmt.Errorf("dsp: cepstral coefficients %d…%d of a %d-point cepstrum", first, first+len(out)-1, p.n)
	}
	if err := p.RealTransform(bins, frame, nil); err != nil {
		return err
	}
	for b, c := range bins {
		power := real(c)*real(c) + imag(c)*imag(c)
		if power < cepstrumFloor*cepstrumFloor {
			power = cepstrumFloor * cepstrumFloor
		}
		bins[b] = complex(0.5*math.Log(power), 0)
	}
	for i := 0; i < len(out); i += cepstralBlock {
		p.cepstralWalk(out[i:min(i+cepstralBlock, len(out))], bins, first+i)
	}
	return nil
}

// cepstralBlock is how many coefficients one walk over the log-spectrum
// sums: as many independent add chains as keep the adder busy.
const cepstralBlock = 4

// cepstralWalk writes coefficients q…q+len(out)−1 of Cepstral, at most
// cepstralBlock of them, into out from the log-spectrum in bins. One walk
// over the interior bins feeds cepstralBlock sums, each taken in bin order,
// so every coefficient is what a walk of its own would give; the sums past
// len(out) are dropped.
func (p *Plan) cepstralWalk(out []float64, bins []complex128, q int) {
	n, m := p.n, p.n/2
	var s0, s1, s2, s3 float64
	if m > 1 {
		tw, mask := p.tw[:m:m], n-1
		i0, i1, i2, i3 := 0, 0, 0, 0
		for _, l := range bins[1:m] {
			v := real(l)
			i0 = (i0 + q) & mask
			i1 = (i1 + q + 1) & mask
			i2 = (i2 + q + 2) & mask
			i3 = (i3 + q + 3) & mask
			s0 += v * signed(real(tw[i0&(m-1)]), i0&m)
			s1 += v * signed(real(tw[i1&(m-1)]), i1&m)
			s2 += v * signed(real(tw[i2&(m-1)]), i2&m)
			s3 += v * signed(real(tw[i3&(m-1)]), i3&m)
		}
	}
	sums := [cepstralBlock]float64{s0, s1, s2, s3}
	for j := range out {
		out[j] = (cepstralEdges(bins, m, q+j) + 2*sums[j]) / float64(n)
	}
}

// cepstralEdges is the part of coefficient q's cosine sum that bins 0 and
// n/2 contribute: c[q] = (1/n)·Σ L[b]·cos(2πbq/n) over b < n, folded onto
// b ≤ n/2, counts interior bins twice, and cos(2π(n/2)q/n) = (−1)^q.
func cepstralEdges(bins []complex128, m, q int) float64 {
	edges := real(bins[0])
	if m > 0 {
		if q%2 == 0 {
			edges += real(bins[m])
		} else {
			edges -= real(bins[m])
		}
	}
	return edges
}

// signed is the cosine c read from the half-turn table at a phase whose
// half-turn bit is half: the table covers half a turn, the other half is
// its negation.
func signed(c float64, half int) float64 {
	if half != 0 {
		return -c
	}
	return c
}

// dctBlock is how many samples a DCT phasor advances by recurrence before it
// is re-seeded from math.Sincos: rounding grows with the block, not with the
// frame length.
const dctBlock = 256

// DCT2Into writes the first len(out) type-II DCT coefficients of x,
// Σ x[i]·cos(π/n·(i+½)·c) normalized by the frame length n so that
// magnitudes are comparable across frame sizes, into out. Each coefficient's
// cosine is the real part of a phasor stepped once per sample, so the cost is
// one complex multiply-add per sample and coefficient and no per-sample
// transcendental. Coefficient 0's phasors are exactly 1+0i at every step, so
// its sum is the plain sum in sample order, which multiplying by them would
// give bit for bit. DCT coefficients are a §6.2 feature family for the WNN
// classifier.
func DCT2Into(out, x []float64) {
	n := len(x)
	if n == 0 {
		clear(out)
		return
	}
	if len(out) > 0 {
		var sum float64
		for _, v := range x {
			sum += v
		}
		out[0] = sum / float64(n)
	}
	for c := 1; c < len(out); c++ {
		w := math.Pi / float64(n) * float64(c)
		sin, cos := math.Sincos(w)
		step := complex(cos, sin)
		stride := step * step
		var sum float64
		for start := 0; start < n; start += dctBlock {
			block := x[start:min(start+dctBlock, n)]
			sin, cos := math.Sincos(w * (float64(start) + 0.5))
			// Two phasors leapfrog over the even and the odd samples so that
			// one multiply does not wait for the previous one; the sum still
			// runs in sample order.
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
