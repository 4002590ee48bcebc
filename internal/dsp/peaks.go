package dsp

// SidebandEnergy returns the summed amplitude of sideband pairs around a
// carrier frequency at spacing delta: carrier ± delta, ± 2*delta, ...
// count pairs, each searched within ±tol Hz. Rotor-bar and gear-tooth faults
// show up as sideband families around line frequency or gear mesh.
func SidebandEnergy(s *Spectrum, carrier, delta, tol float64, count int) float64 {
	var sum float64
	for k := 1; k <= count; k++ {
		d := delta * float64(k)
		sum += s.AmpAt(carrier-d, tol) + s.AmpAt(carrier+d, tol)
	}
	return sum
}
