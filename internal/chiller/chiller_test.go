package chiller

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

func newPlant(t testing.TB) *Plant {
	t.Helper()
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func spectrumOf(t testing.TB, p *Plant, pt MeasurementPoint) *dsp.Spectrum {
	t.Helper()
	frame, err := p.AcquireVibration(pt, 16384)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dsp.AnalyzeFrame(frame, p.Config().SampleRate, dsp.Hann)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.LineFreqHz = 0 }),
		mut(func(c *Config) { c.MotorRPM = -1 }),
		mut(func(c *Config) { c.SampleRate = 0 }),
		mut(func(c *Config) { c.Poles = 3 }),
		mut(func(c *Config) { c.Poles = 0 }),
		mut(func(c *Config) { c.GearTeeth = 0 }),
		mut(func(c *Config) { c.ImpellerBlades = 0 }),
		mut(func(c *Config) { c.RotorBars = 0 }),
		mut(func(c *Config) { c.GearRatio = 0 }),
		mut(func(c *Config) { c.MotorRPM = 1800 }),   // at synchronous speed
		mut(func(c *Config) { c.SampleRate = 2000 }), // mesh above Nyquist
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestDerivedFrequencies(t *testing.T) {
	c := DefaultConfig()
	if math.Abs(c.MotorShaftHz()-1780.0/60) > 1e-9 {
		t.Error("shaft hz")
	}
	if math.Abs(c.CompShaftHz()-c.MotorShaftHz()*3.2) > 1e-9 {
		t.Error("comp hz")
	}
	if math.Abs(c.GearMeshHz()-c.MotorShaftHz()*67) > 1e-9 {
		t.Error("mesh hz")
	}
	if math.Abs(c.BladePassHz()-c.CompShaftHz()*17) > 1e-9 {
		t.Error("blade hz")
	}
	// 4-pole 60 Hz synchronous = 30 Hz shaft; slip = 30 - 29.67 = 1/3 Hz.
	if math.Abs(c.SlipHz()-(30-1780.0/60)) > 1e-9 {
		t.Error("slip hz")
	}
	if math.Abs(c.PolePassHz()-4*c.SlipHz()) > 1e-9 {
		t.Error("pole pass hz")
	}
}

func TestFaultNamesRoundTrip(t *testing.T) {
	if NumFaults != 12 {
		t.Fatalf("paper's FMEA selected 12 failure modes; have %d", NumFaults)
	}
	for _, f := range AllFaults() {
		parsed, err := ParseFault(f.String())
		if err != nil || parsed != f {
			t.Errorf("%v: round trip failed (%v, %v)", f, parsed, err)
		}
	}
	if _, err := ParseFault("bogus"); err == nil {
		t.Error("bogus fault name")
	}
	// Every fault belongs to a named group; groups partition the faults.
	groups := FaultGroups()
	total := 0
	for name, fs := range groups {
		if name == "unknown" {
			t.Errorf("faults in unknown group: %v", fs)
		}
		total += len(fs)
	}
	if total != NumFaults {
		t.Errorf("groups cover %d faults", total)
	}
	if !MotorImbalance.IsVibrational() || RefrigerantLowCharge.IsVibrational() {
		t.Error("IsVibrational wrong")
	}
}

func TestSetFaultValidation(t *testing.T) {
	p := newPlant(t)
	if err := p.SetFault(Fault(99), 0.5); err == nil {
		t.Error("unknown fault")
	}
	if err := p.SetFault(MotorImbalance, -0.1); err == nil {
		t.Error("negative severity")
	}
	if err := p.SetFault(MotorImbalance, 1.5); err == nil {
		t.Error("severity > 1")
	}
	if err := p.SetFault(MotorImbalance, math.NaN()); err == nil {
		t.Error("NaN severity")
	}
	if err := p.SetLoad(-0.1); err == nil {
		t.Error("negative load")
	}
	if err := p.SetLoad(2); err == nil {
		t.Error("load > 1")
	}
	if _, err := p.AcquireVibration(MotorDE, 0); err == nil {
		t.Error("zero frame")
	}
	if _, err := p.AcquireVibration(MeasurementPoint(99), 128); err == nil {
		t.Error("unknown point")
	}
	if err := p.SetFault(MotorImbalance, 0.7); err != nil {
		t.Fatal(err)
	}
	if p.FaultSeverity(MotorImbalance) != 0.7 {
		t.Error("severity readback")
	}
	if p.FaultSeverity(Fault(99)) != 0 {
		t.Error("oob severity readback")
	}
	active := p.ActiveFaults(0.1)
	if len(active) != 1 || active[0] != MotorImbalance {
		t.Errorf("active %v", active)
	}
}

func TestHealthyBaselineIsQuiet(t *testing.T) {
	p := newPlant(t)
	s := spectrumOf(t, p, MotorDE)
	shaft := p.Config().MotorShaftHz()
	// Residual 1× is present but small.
	oneX := s.AmpAt(shaft, 2)
	if oneX < 0.02 || oneX > 0.12 {
		t.Errorf("healthy 1× = %g, want ≈0.05", oneX)
	}
	// No bearing tones.
	bpfo := p.Config().MotorBearing.BPFO * shaft
	if a := s.AmpAt(bpfo, 3); a > 0.03 {
		t.Errorf("healthy BPFO = %g", a)
	}
}

func TestImbalanceSignature(t *testing.T) {
	p := newPlant(t)
	if err := p.SetFault(MotorImbalance, 0.8); err != nil {
		t.Fatal(err)
	}
	s := spectrumOf(t, p, MotorDE)
	shaft := p.Config().MotorShaftHz()
	oneX := s.AmpAt(shaft, 2)
	twoX := s.AmpAt(2*shaft, 2)
	if oneX < 0.5 {
		t.Errorf("imbalance 1× = %g, want > 0.5", oneX)
	}
	if twoX > oneX/3 {
		t.Errorf("imbalance should be 1×-dominant (1×=%g 2×=%g)", oneX, twoX)
	}
}

func TestMisalignmentSignature(t *testing.T) {
	p := newPlant(t)
	if err := p.SetFault(MotorMisalignment, 0.8); err != nil {
		t.Fatal(err)
	}
	s := spectrumOf(t, p, MotorDE)
	shaft := p.Config().MotorShaftHz()
	if s.AmpAt(2*shaft, 2) < 2*s.AmpAt(shaft, 2)/3 {
		t.Errorf("misalignment should elevate 2× relative to 1× (1×=%g 2×=%g)",
			s.AmpAt(shaft, 2), s.AmpAt(2*shaft, 2))
	}
}

func TestBearingSignatures(t *testing.T) {
	p := newPlant(t)
	if err := p.SetFault(MotorBearingOuter, 0.7); err != nil {
		t.Fatal(err)
	}
	s := spectrumOf(t, p, MotorDE)
	shaft := p.Config().MotorShaftHz()
	bpfo := p.Config().MotorBearing.BPFO * shaft
	if a := s.AmpAt(bpfo, 4); a < 0.1 {
		t.Errorf("BPFO tone %g too small", a)
	}
	// Impulsiveness shows in the time domain.
	frame, _ := p.AcquireVibration(MotorDE, 16384)
	if k := dsp.Waveform(frame).Kurtosis; k < 3.5 {
		t.Errorf("outer race kurtosis %g, want impulsive (>3.5)", k)
	}
	// Inner race at its point.
	p2 := newPlant(t)
	if err := p2.SetFault(MotorBearingInner, 0.7); err != nil {
		t.Fatal(err)
	}
	s2 := spectrumOf(t, p2, MotorNDE)
	bpfi := p2.Config().MotorBearing.BPFI * shaft
	if a := s2.AmpAt(bpfi, 4); a < 0.08 {
		t.Errorf("BPFI tone %g too small", a)
	}
}

func TestRotorBarLoadDependence(t *testing.T) {
	// §6.1: rules must be load sensitive. Rotor bar sidebands nearly vanish
	// unloaded.
	p := newPlant(t)
	if err := p.SetFault(MotorRotorBar, 0.8); err != nil {
		t.Fatal(err)
	}
	line := p.Config().LineFreqHz
	pp := p.Config().PolePassHz()

	if err := p.SetLoad(1.0); err != nil {
		t.Fatal(err)
	}
	loaded := spectrumOf(t, p, MotorNDE)
	loadedSB := loaded.AmpAt(line-pp, 0.5) + loaded.AmpAt(line+pp, 0.5)

	if err := p.SetLoad(0.0); err != nil {
		t.Fatal(err)
	}
	unloaded := spectrumOf(t, p, MotorNDE)
	unloadedSB := unloaded.AmpAt(line-pp, 0.5) + unloaded.AmpAt(line+pp, 0.5)

	if loadedSB < 3*unloadedSB {
		t.Errorf("rotor bar sidebands should grow with load: loaded=%g unloaded=%g",
			loadedSB, unloadedSB)
	}
}

func TestLoosenessLoadDependence(t *testing.T) {
	// Looseness reads HIGHER unloaded — the §6.1 false-positive trap.
	p := newPlant(t)
	if err := p.SetFault(BearingLooseness, 0.6); err != nil {
		t.Fatal(err)
	}
	comp := p.Config().CompShaftHz()
	if err := p.SetLoad(0.1); err != nil {
		t.Fatal(err)
	}
	unloaded := spectrumOf(t, p, Compressor)
	uAmp := unloaded.AmpAt(2*comp, 3) + unloaded.AmpAt(3*comp, 3)
	if err := p.SetLoad(1.0); err != nil {
		t.Fatal(err)
	}
	loaded := spectrumOf(t, p, Compressor)
	lAmp := loaded.AmpAt(2*comp, 3) + loaded.AmpAt(3*comp, 3)
	if uAmp <= lAmp {
		t.Errorf("looseness should read higher unloaded: unloaded=%g loaded=%g", uAmp, lAmp)
	}
}

func TestGearWearSignature(t *testing.T) {
	p := newPlant(t)
	if err := p.SetFault(GearToothWear, 0.7); err != nil {
		t.Fatal(err)
	}
	s := spectrumOf(t, p, GearBox)
	mesh := p.Config().GearMeshHz()
	shaft := p.Config().MotorShaftHz()
	if a := s.AmpAt(mesh, 4); a < 0.2 {
		t.Errorf("mesh tone %g too small", a)
	}
	sb := dsp.SidebandEnergy(s, mesh, shaft, 2, 1)
	if sb < 0.1 {
		t.Errorf("mesh sidebands %g too small", sb)
	}
}

func TestOilWhirlSubsynchronous(t *testing.T) {
	p := newPlant(t)
	if err := p.SetFault(OilWhirl, 0.8); err != nil {
		t.Fatal(err)
	}
	s := spectrumOf(t, p, Compressor)
	comp := p.Config().CompShaftHz()
	if a := s.AmpAt(0.43*comp, 3); a < 0.3 {
		t.Errorf("oil whirl tone %g too small", a)
	}
}

func TestProcessFaultsAffectScalarsNotVibration(t *testing.T) {
	p := newPlant(t)
	healthy := p.ProcessState()
	if err := p.SetFault(RefrigerantLowCharge, 0.8); err != nil {
		t.Fatal(err)
	}
	low := p.ProcessState()
	if low.EvapPressurePSI >= healthy.EvapPressurePSI-5 {
		t.Errorf("low charge should depress evap pressure: %g vs %g",
			low.EvapPressurePSI, healthy.EvapPressurePSI)
	}
	if low.SuperheatF <= healthy.SuperheatF+5 {
		t.Errorf("low charge should raise superheat: %g vs %g",
			low.SuperheatF, healthy.SuperheatF)
	}
	// Vibration unchanged (within noise) by a pure process fault.
	s := spectrumOf(t, p, MotorDE)
	if a := s.AmpAt(p.Config().MotorShaftHz(), 2); a > 0.12 {
		t.Errorf("process fault leaked into vibration: 1× = %g", a)
	}
	// Condenser fouling raises head pressure.
	p2 := newPlant(t)
	if err := p2.SetFault(CondenserFouling, 0.9); err != nil {
		t.Fatal(err)
	}
	fouled := p2.ProcessState()
	if fouled.CondPressurePSI < healthy.CondPressurePSI+15 {
		t.Errorf("fouling should raise condenser pressure: %g vs %g",
			fouled.CondPressurePSI, healthy.CondPressurePSI)
	}
}

func TestSeverityMonotoneProperty(t *testing.T) {
	// Property: for any vibrational fault, its primary signature amplitude
	// is non-decreasing in severity.
	prop := func(faultSel uint8, s1, s2 float64) bool {
		f := Fault(int(faultSel) % NumFaults)
		if !f.IsVibrational() {
			return true
		}
		s1 = math.Abs(math.Mod(s1, 1))
		s2 = math.Abs(math.Mod(s2, 1))
		if math.IsNaN(s1) || math.IsNaN(s2) {
			return true
		}
		lo, hi := math.Min(s1, s2), math.Max(s1, s2)
		if hi-lo < 0.3 {
			return true // too close to distinguish over noise
		}
		cfg := DefaultConfig()
		cfg.NoiseFloor = 0.001
		amp := func(sev float64) float64 {
			p, err := New(cfg)
			if err != nil {
				return -1
			}
			if err := p.SetFault(f, sev); err != nil {
				return -1
			}
			var best float64
			for _, pt := range AllPoints() {
				frame, err := p.AcquireVibration(pt, 8192)
				if err != nil {
					return -1
				}
				r := dsp.Waveform(frame).RMS
				if r > best {
					best = r
				}
			}
			return best
		}
		return amp(hi) >= amp(lo)-0.01
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDegradationProfiles(t *testing.T) {
	for _, shape := range []GrowthShape{Linear, Exponential, SCurve} {
		d := DegradationProfile{Fault: MotorBearingOuter, OnsetHours: 100, GrowthHours: 1000, Shape: shape}
		if d.SeverityAt(50) != 0 {
			t.Errorf("%v: severity before onset", shape)
		}
		if d.SeverityAt(0) != 0 {
			t.Errorf("%v: severity at 0", shape)
		}
		// Monotone, clamped.
		prev := -1.0
		for h := 0.0; h < 2000; h += 50 {
			s := d.SeverityAt(h)
			if s < prev-1e-12 || s < 0 || s > 1 {
				t.Fatalf("%v: non-monotone or out of range at %g: %g", shape, h, s)
			}
			prev = s
		}
		if d.SeverityAt(5000) != 1 {
			t.Errorf("%v: should saturate at 1", shape)
		}
	}
}

func TestDegrader(t *testing.T) {
	p := newPlant(t)
	profiles := []DegradationProfile{
		{Fault: MotorBearingOuter, OnsetHours: 10, GrowthHours: 100, Shape: Exponential},
		{Fault: CondenserFouling, OnsetHours: 0, GrowthHours: 500, Shape: Linear},
	}
	d, err := NewDegrader(p, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.profiles) != 2 {
		t.Error("profiles")
	}
	if err := d.Advance(-1); err == nil {
		t.Error("negative step")
	}
	for i := 0; i < 10; i++ {
		if err := d.Advance(20); err != nil {
			t.Fatal(err)
		}
	}
	if p.hours != 200 {
		t.Errorf("hours %g", p.hours)
	}
	if p.FaultSeverity(MotorBearingOuter) <= 0.5 {
		t.Errorf("bearing severity %g after 200h", p.FaultSeverity(MotorBearingOuter))
	}
	if got := p.FaultSeverity(CondenserFouling); math.Abs(got-0.4) > 0.01 {
		t.Errorf("fouling severity %g, want 0.4", got)
	}
	// Validation.
	if _, err := NewDegrader(p, []DegradationProfile{{Fault: Fault(99), GrowthHours: 1}}); err == nil {
		t.Error("bad fault")
	}
	if _, err := NewDegrader(p, []DegradationProfile{
		{Fault: MotorImbalance, GrowthHours: 1},
		{Fault: MotorImbalance, GrowthHours: 2},
	}); err == nil {
		t.Error("duplicate profile")
	}
	if _, err := NewDegrader(p, []DegradationProfile{{Fault: MotorImbalance, GrowthHours: 0}}); err == nil {
		t.Error("zero growth")
	}
}

func TestReproducibility(t *testing.T) {
	run := func() []float64 {
		p := newPlant(t)
		if err := p.SetFault(MotorBearingOuter, 0.5); err != nil {
			t.Fatal(err)
		}
		frame, err := p.AcquireVibration(MotorDE, 1024)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPointNames(t *testing.T) {
	if MotorDE.String() != "motor-de" || Compressor.String() != "compressor" {
		t.Error("point names")
	}
	if MeasurementPoint(99).String() == "" {
		t.Error("unknown point name")
	}
	if len(AllPoints()) != 4 {
		t.Error("point count")
	}
}

func BenchmarkAcquireVibration16k(b *testing.B) {
	p, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := p.SetFault(MotorBearingOuter, 0.5); err != nil {
		b.Fatal(err)
	}
	if err := p.SetFault(GearToothWear, 0.3); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(16384 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AcquireVibration(GearBox, 16384); err != nil {
			b.Fatal(err)
		}
	}
}
