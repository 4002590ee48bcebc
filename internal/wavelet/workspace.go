package wavelet

import "fmt"

// Workspace is a preallocated multi-level DWT engine for fixed-length
// frames. Filters, per-level coefficient buffers, and the energy-map scratch
// are all sized at construction; Decompose only overwrites them, so the WNN
// feature path detects transitory phenomena on every acquisition tick
// without allocating. It holds no cross-frame state. The package-level
// Decompose is its one-shot form.
//
// The returned *Decomposition aliases the workspace's internal buffers and
// is valid until the next Decompose call.
type Workspace struct {
	kind     Kind
	n        int
	levels   int
	low      []float64
	high     []float64
	approxes [][]float64 // approxes[l] has length n >> (l+1)
	details  [][]float64 // details[l] has length n >> (l+1)
	energy   []float64   // levels+1 bands
	decomp   Decomposition
}

// NewWorkspace sizes a workspace for frames of exactly frameLen samples,
// decomposed levels deep (levels <= 0 or beyond the maximum usable depth
// selects that maximum).
func NewWorkspace(k Kind, frameLen, levels int) (*Workspace, error) {
	low, err := k.filters()
	if err != nil {
		return nil, err
	}
	if deepest := maxLevels(frameLen, len(low)); levels <= 0 || levels > deepest {
		levels = deepest
	}
	if levels == 0 {
		return nil, fmt.Errorf("wavelet: frame of length %d too short for %v", frameLen, k)
	}
	w := &Workspace{
		kind:   k,
		n:      frameLen,
		levels: levels,
		low:    low,
		high:   highPass(low),
		energy: make([]float64, levels+1),
	}
	for l, m := 0, frameLen/2; l < levels; l, m = l+1, m/2 {
		w.approxes = append(w.approxes, make([]float64, m))
		w.details = append(w.details, make([]float64, m))
	}
	w.decomp = Decomposition{
		Kind:    k,
		Details: w.details,
		Approx:  w.approxes[levels-1],
	}
	return w, nil
}

// FrameLen returns the frame length the workspace was sized for.
func (w *Workspace) FrameLen() int { return w.n }

// Levels returns the decomposition depth.
func (w *Workspace) Levels() int { return w.levels }

// Decompose runs the multi-resolution analysis of x into the preallocated
// coefficient buffers. x must be exactly FrameLen samples and is not
// modified. The result aliases internal state and is overwritten by the
// next call.
//
//mpros:hotpath wavelet feature bands on the acquisition tick
func (w *Workspace) Decompose(x []float64) (*Decomposition, error) {
	if len(x) != w.n {
		return nil, fmt.Errorf("wavelet: frame length %d, workspace sized for %d", len(x), w.n)
	}
	src := x
	for l := 0; l < w.levels; l++ {
		transformInto(w.low, w.high, src, w.approxes[l], w.details[l])
		src = w.approxes[l]
	}
	return &w.decomp, nil
}

// EnergyMap computes the relative band-energy vector of the last
// decomposition into the workspace's scratch: Decomposition.EnergyMap
// without the allocation. The result is overwritten by the next call.
//
//mpros:hotpath wavelet energy-map classifier features
func (w *Workspace) EnergyMap() []float64 {
	return w.decomp.energyMapInto(w.energy)
}

// maxLevels returns how many DWT levels a frame of n samples supports under
// a filter of the given length: each level needs an even length no shorter
// than the filter.
func maxLevels(n, filterLen int) int {
	levels := 0
	for ; n >= 2*filterLen || (n >= filterLen && n%2 == 0 && levels == 0); n /= 2 {
		if n%2 != 0 {
			break
		}
		levels++
		if n/2 < filterLen {
			break
		}
	}
	return levels
}
