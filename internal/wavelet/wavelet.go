// Package wavelet implements the discrete wavelet transform substrate for
// the Wavelet Neural Network diagnostics of §6.2. The WNN "belongs to a new
// class of neural networks with such unique capabilities as multi-resolution
// and localization"; this package supplies the multi-resolution analysis:
// Haar and Daubechies-4 DWT/IDWT, multi-level decomposition, and wavelet
// energy maps used as classifier features for transitory phenomena.
package wavelet

import (
	"fmt"
	"math"
)

// Kind selects the wavelet family.
type Kind int

const (
	// Haar is the 2-tap Haar wavelet: maximal time localization, used for
	// sharp transients (spikes, impacts).
	Haar Kind = iota
	// Daubechies4 is the 4-tap Daubechies wavelet (db2 in some namings),
	// smoother basis better suited to oscillatory transients.
	Daubechies4
)

// String returns the wavelet family name.
func (k Kind) String() string {
	switch k {
	case Haar:
		return "haar"
	case Daubechies4:
		return "daubechies4"
	default:
		return "unknown"
	}
}

// filters returns the low-pass (scaling) decomposition filter for k. The
// high-pass filter is derived by the quadrature mirror relation.
func (k Kind) filters() ([]float64, error) {
	switch k {
	case Haar:
		s := 1 / math.Sqrt2
		return []float64{s, s}, nil
	case Daubechies4:
		r3 := math.Sqrt(3)
		den := 4 * math.Sqrt2
		return []float64{
			(1 + r3) / den,
			(3 + r3) / den,
			(3 - r3) / den,
			(1 - r3) / den,
		}, nil
	default:
		return nil, fmt.Errorf("wavelet: unknown kind %d", k)
	}
}

// highPass derives the wavelet (detail) filter from a scaling filter by the
// alternating-sign quadrature mirror construction.
func highPass(low []float64) []float64 {
	n := len(low)
	h := make([]float64, n)
	for i := 0; i < n; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		h[i] = sign * low[n-1-i]
	}
	return h
}

// transformInto is one circular-convolution DWT level writing approximation
// and detail coefficients into caller-provided buffers of length len(x)/2:
// output i is Σ_j filter[j]·x[(2i+j) mod n], summed in tap order. Every
// output whose taps all fall inside x reads them in place, with the filters
// unrolled for the two families; only the last taps/2 − 1 outputs wrap
// around the end of x (all of them when x is no longer than the filter) and
// pay the modulo. Each output is the same sum either way.
func transformInto(low, high, x, approx, detail []float64) {
	n, taps := len(x), len(low)
	half := n / 2
	approx, detail = approx[:half], detail[:half]
	inner := 0
	if n >= taps {
		inner = min(half, (n-taps)/2+1)
	}
	switch taps {
	case 4:
		l0, l1, l2, l3 := low[0], low[1], low[2], low[3]
		h0, h1, h2, h3 := high[0], high[1], high[2], high[3]
		for i := range inner {
			v := x[2*i : 2*i+4 : 2*i+4]
			var a, d float64
			a += l0 * v[0]
			d += h0 * v[0]
			a += l1 * v[1]
			d += h1 * v[1]
			a += l2 * v[2]
			d += h2 * v[2]
			a += l3 * v[3]
			d += h3 * v[3]
			approx[i], detail[i] = a, d
		}
	case 2:
		l0, l1, h0, h1 := low[0], low[1], high[0], high[1]
		for i := range inner {
			v := x[2*i : 2*i+2 : 2*i+2]
			var a, d float64
			a += l0 * v[0]
			d += h0 * v[0]
			a += l1 * v[1]
			d += h1 * v[1]
			approx[i], detail[i] = a, d
		}
	default:
		inner = 0
	}
	for i := inner; i < half; i++ {
		var a, d float64
		for j := range low {
			v := x[(2*i+j)%n]
			a += low[j] * v
			d += high[j] * v
		}
		approx[i] = a
		detail[i] = d
	}
}

// Decomposition is a multi-level DWT of a frame: Details[l] holds the detail
// coefficients of level l+1 (finest first) and Approx the final
// approximation.
type Decomposition struct {
	Kind    Kind
	Details [][]float64
	Approx  []float64
}

// Decompose performs a levels-deep multi-resolution analysis of x.
// If levels <= 0 the maximum usable depth for the frame length is used. It
// is the one-shot form of Workspace: a fresh workspace sized for x runs once
// and hands back its decomposition, which nothing else aliases.
func Decompose(k Kind, x []float64, levels int) (*Decomposition, error) {
	w, err := NewWorkspace(k, len(x), levels)
	if err != nil {
		return nil, err
	}
	return w.Decompose(x)
}

// Levels returns the decomposition depth.
func (d *Decomposition) Levels() int { return len(d.Details) }

// EnergyMap returns the relative energy in each detail band plus the final
// approximation band, normalized to sum to 1 (the "wavelet map" feature of
// §6.2). Index 0 is the finest detail band; the last entry is the
// approximation. A zero-energy frame returns all zeros.
func (d *Decomposition) EnergyMap() []float64 {
	return d.energyMapInto(make([]float64, len(d.Details)+1))
}

// energyMapInto computes EnergyMap into out, which must hold one entry per
// detail band plus one for the approximation.
func (d *Decomposition) energyMapInto(out []float64) []float64 {
	var total float64
	for i, det := range d.Details {
		var e float64
		for _, v := range det {
			e += v * v
		}
		out[i] = e
		total += e
	}
	var e float64
	for _, v := range d.Approx {
		e += v * v
	}
	out[len(out)-1] = e
	total += e
	if total == 0 {
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}
