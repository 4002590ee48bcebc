package dsp

import "math"

// WindowKind selects a tapering window for spectral analysis frames.
type WindowKind int

const (
	// Rectangular applies no tapering (all ones).
	Rectangular WindowKind = iota
	// Hann is the raised-cosine window; the default for vibration spectra
	// because of its good sidelobe behaviour on rotating-machinery tones.
	Hann
	// Hamming is the classic Hamming window.
	Hamming
	// Blackman is the three-term Blackman window with very low sidelobes.
	Blackman
	// FlatTop is a five-term flat-top window used when amplitude accuracy
	// of discrete tones matters more than frequency resolution.
	FlatTop
)

// String returns the human-readable window name.
func (w WindowKind) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	case FlatTop:
		return "flattop"
	default:
		return "unknown"
	}
}

// Window returns the n window coefficients for kind.
func Window(kind WindowKind, n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	den := float64(n - 1)
	// Every kind is symmetric about the frame's centre: evaluate the leading
	// half and mirror it.
	for i := 0; i < (n+1)/2; i++ {
		t := float64(i) / den
		switch kind {
		case Rectangular:
			w[i] = 1
		case Hann:
			w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*t)
		case Hamming:
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*t)
		case Blackman:
			w[i] = 0.42 - 0.5*math.Cos(2*math.Pi*t) + 0.08*math.Cos(4*math.Pi*t)
		case FlatTop:
			w[i] = 0.21557895 -
				0.41663158*math.Cos(2*math.Pi*t) +
				0.277263158*math.Cos(4*math.Pi*t) -
				0.083578947*math.Cos(6*math.Pi*t) +
				0.006947368*math.Cos(8*math.Pi*t)
		}
		w[n-1-i] = w[i]
	}
	return w
}
