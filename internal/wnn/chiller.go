package wnn

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/chiller"
	"repro/internal/dsp"
)

// ChillerClassifier packages trained wavelet neural networks as the third
// MPROS knowledge source: one small WNN per measurement point, classifying
// frames into healthy-or-fault for the faults whose signatures concentrate
// at that point. Training data is synthesized from throwaway plants at
// varied severities, loads and seeds — the "seeded faults" validation
// strategy of §9 applied as a training corpus.
type ChillerClassifier struct {
	cfg    chiller.Config
	fc     FeatureConfig
	frames int
	nets   map[chiller.MeasurementPoint]*Network
	// classes[pt][0] is always the healthy class; the rest are faults.
	classes map[chiller.MeasurementPoint][]chiller.Fault
	// plan is the transform plan of the cepstral stage: one frame length,
	// one immutable twiddle table, read by every workspace.
	plan *dsp.Plan
	// maxClasses sizes a workspace's activations for the widest network.
	maxClasses int
	// scratch pools the feature workspaces (≈ 3 × frame length of pure
	// scratch each). One classifier serves every DC it is attached to, so
	// the scratch is shared between them and let go when idle.
	scratch sync.Pool
}

// hiddenUnits is the wavelon count of every per-point network.
const hiddenUnits = 16

// pointFaults lists the faults each per-point network discriminates. The
// healthy class is implicit at index 0.
func pointFaults() map[chiller.MeasurementPoint][]chiller.Fault {
	return map[chiller.MeasurementPoint][]chiller.Fault{
		chiller.MotorDE:    {chiller.MotorImbalance, chiller.MotorBearingOuter},
		chiller.MotorNDE:   {chiller.MotorBearingInner},
		chiller.GearBox:    {chiller.GearToothWear},
		chiller.Compressor: {chiller.CompressorBearingOuter, chiller.OilWhirl},
	}
}

// NewChillerClassifier trains the per-point networks. perClass controls the
// training corpus size per class (16 is adequate for the simulator's
// signature separation; raise it for noisier configurations). frameLen must
// match the frames the classifier will see at run time.
func NewChillerClassifier(cfg chiller.Config, frameLen, perClass int, seed int64) (*ChillerClassifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if frameLen < 1<<10 {
		return nil, fmt.Errorf("wnn: frame length %d too short", frameLen)
	}
	if perClass < 4 {
		return nil, fmt.Errorf("wnn: perClass %d too small to train", perClass)
	}
	plan, err := dsp.NewPlan(dsp.NextPow2(frameLen))
	if err != nil {
		return nil, err
	}
	c := &ChillerClassifier{
		cfg:     cfg,
		fc:      DefaultFeatureConfig(),
		frames:  frameLen,
		nets:    make(map[chiller.MeasurementPoint]*Network),
		classes: pointFaults(),
		plan:    plan,
	}
	for _, faults := range c.classes {
		c.maxClasses = max(c.maxClasses, len(faults)+1)
	}
	for pt, faults := range c.classes {
		var xs [][]float64
		var ys []int
		gen := func(label int, fault chiller.Fault, sev float64, sampleSeed int64) error {
			pc := cfg
			pc.Seed = sampleSeed
			plant, err := chiller.New(pc)
			if err != nil {
				return err
			}
			if sev > 0 {
				if err := plant.SetFault(fault, sev); err != nil {
					return err
				}
			}
			if err := plant.SetLoad(0.4 + 0.6*float64(sampleSeed%7)/7); err != nil {
				return err
			}
			frame, err := plant.AcquireVibration(pt, frameLen)
			if err != nil {
				return err
			}
			x, err := c.features(frame)
			if err != nil {
				return err
			}
			xs = append(xs, x)
			ys = append(ys, label)
			return nil
		}
		for k := 0; k < perClass; k++ {
			if err := gen(0, 0, 0, seed+int64(int(pt)*10000+k)); err != nil {
				return nil, err
			}
		}
		for fi, fault := range faults {
			for k := 0; k < perClass; k++ {
				sev := 0.4 + 0.6*float64(k%6)/6
				if err := gen(fi+1, fault, sev, seed+int64(int(pt)*10000+(fi+1)*1000+k)); err != nil {
					return nil, err
				}
			}
		}
		net, err := NewNetwork(c.fc.Dim(), hiddenUnits, len(faults)+1, seed+int64(pt))
		if err != nil {
			return nil, err
		}
		opt := DefaultTrainOptions()
		if _, err := net.Train(xs, ys, opt); err != nil {
			return nil, err
		}
		c.nets[pt] = net
	}
	return c, nil
}

// Classification is one WNN verdict for a frame.
type Classification struct {
	// Healthy reports whether the healthy class won.
	Healthy bool
	// Fault is the winning fault when not healthy.
	Fault chiller.Fault
	// Confidence is the winning class probability.
	Confidence float64
}

// Classify runs the point's network over a frame, on a workspace borrowed
// from the classifier's pool for the call.
func (c *ChillerClassifier) Classify(frame []float64, pt chiller.MeasurementPoint) (Classification, error) {
	ws, err := c.acquire()
	if err != nil {
		return Classification{}, err
	}
	defer c.scratch.Put(ws)
	return c.classifyOn(ws, frame, dsp.Waveform(frame), pt)
}

// Workspace is the scratch one frame's classification runs on, for a caller
// that classifies every cycle on several goroutines and holds one workspace
// per goroutine instead of borrowing from the pool per call.
type Workspace struct {
	c  *ChillerClassifier
	ws *workspace
}

// NewWorkspace builds a workspace for ClassifyOn.
func (c *ChillerClassifier) NewWorkspace() (*Workspace, error) {
	ws, err := newWorkspace(c.plan, c.frames, c.fc, newActivations(c.fc.Dim(), hiddenUnits, c.maxClasses))
	if err != nil {
		return nil, err
	}
	return &Workspace{c: c, ws: ws}, nil
}

// ClassifyOn is Classify on a workspace c built, used by one goroutine at a
// time, for a frame whose dsp.Waveform statistics st the caller has already
// computed for its other consumers.
func (c *ChillerClassifier) ClassifyOn(ws *Workspace, frame []float64, st dsp.WaveformStats, pt chiller.MeasurementPoint) (Classification, error) {
	if ws.c != c {
		return Classification{}, fmt.Errorf("wnn: workspace built by another classifier")
	}
	return c.classifyOn(ws.ws, frame, st, pt)
}

func (c *ChillerClassifier) classifyOn(ws *workspace, frame []float64, st dsp.WaveformStats, pt chiller.MeasurementPoint) (Classification, error) {
	net, ok := c.nets[pt]
	if !ok {
		return Classification{}, fmt.Errorf("wnn: no classifier for point %v", pt)
	}
	if len(frame) != c.frames {
		return Classification{}, fmt.Errorf("wnn: frame length %d, trained on %d", len(frame), c.frames)
	}
	cls, confidence, err := ws.classify(net, frame, st)
	if err != nil {
		return Classification{}, err
	}
	out := Classification{Confidence: confidence}
	if cls == 0 {
		out.Healthy = true
	} else {
		out.Fault = c.classes[pt][cls-1]
	}
	return out, nil
}

// acquire borrows a workspace from the pool, building one when it is empty.
// Hand it back with c.scratch.Put.
func (c *ChillerClassifier) acquire() (*workspace, error) {
	if ws, ok := c.scratch.Get().(*workspace); ok {
		return ws, nil
	}
	ws, err := c.NewWorkspace()
	if err != nil {
		return nil, err
	}
	return ws.ws, nil
}

// features extracts one frame's feature vector on a pooled workspace and
// returns a copy the caller may keep.
func (c *ChillerClassifier) features(frame []float64) ([]float64, error) {
	ws, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer c.scratch.Put(ws)
	x, err := ws.extract(frame, dsp.Waveform(frame))
	if err != nil {
		return nil, err
	}
	return slices.Clone(x), nil
}

// FrameLen returns the frame length the classifier was trained on.
func (c *ChillerClassifier) FrameLen() int { return c.frames }
