package wnn

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chiller"
	"repro/internal/testkit"
	"repro/internal/vibration"
)

const featuresGolden = "testdata/features.golden"

// goldenFrameLens are the frame lengths the golden pins: the DC's default
// frame, and one that is not a power of two, which zero-pads the transform
// plan and cuts the wavelet map's frame to its power-of-two prefix.
var goldenFrameLens = []int{16384, 12000}

// goldenLines computes one line per (frame length, plant state, point): the
// WNN feature vector and every float of vibration.Features of one seeded
// chiller frame, each value as its IEEE-754 bits in hex. A plant state is
// healthy or one vibration fault at severity 0.8; each state starts a fresh
// plant at the default seed and acquires the points in order.
func goldenLines(t *testing.T) []string {
	t.Helper()
	cfg := chiller.DefaultConfig()
	fc := DefaultFeatureConfig()
	states := []string{"healthy"}
	for _, f := range chiller.AllFaults() {
		if f.IsVibrational() {
			states = append(states, f.String())
		}
	}
	var lines []string
	for _, n := range goldenFrameLens {
		for _, state := range states {
			p, err := chiller.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if state != "healthy" {
				f, err := chiller.ParseFault(state)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.SetFault(f, 0.8); err != nil {
					t.Fatal(err)
				}
			}
			for _, pt := range chiller.AllPoints() {
				frame, err := p.AcquireVibration(pt, n)
				if err != nil {
					t.Fatal(err)
				}
				x, err := Extract(frame, fc)
				if err != nil {
					t.Fatal(err)
				}
				vf, err := vibration.Extract(frame, cfg, pt)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%d|%s|%s|wnn %s|vib %s",
					n, state, pt, hexBits(x), hexBits(floatFields(reflect.ValueOf(*vf), nil))))
			}
		}
	}
	return lines
}

// floatFields appends every float64 of v, a struct of floats, float arrays
// and other fields, in declaration order.
func floatFields(v reflect.Value, out []float64) []float64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, v.Float())
	case reflect.Array:
		for i := range v.Len() {
			out = floatFields(v.Index(i), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = floatFields(v.Field(i), out)
		}
	}
	return out
}

func hexBits(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(x))
	}
	return b.String()
}

// TestFeaturesMatchGolden pins the vibration test's per-point features bit
// for bit: the WNN feature vector (waveform statistics, cepstral and DCT
// coefficients, wavelet map) and the DLI feature frame of seeded chiller
// frames at every point, healthy and under each vibration fault, at a
// power-of-two and a padded frame length. A kernel rewrite that reorders
// any floating-point operation of a feature fails it. Regenerate the file
// only from a build whose features you trust, with
// go test ./internal/wnn/ -run TestFeaturesMatchGolden -update.
func TestFeaturesMatchGolden(t *testing.T) {
	testkit.Lines(t, featuresGolden, goldenLines(t), testkit.Describe(describeDiff))
}

// describeDiff names the case of a golden line and the first value that
// differs, decoded from its bits.
func describeDiff(got, want string) string {
	g, w := strings.Split(got, "|"), strings.Split(want, "|")
	if len(g) != len(w) || g[0] != w[0] || g[1] != w[1] || g[2] != w[2] {
		return fmt.Sprintf("got  %.80s…\nwant %.80s…", got, want)
	}
	for part := 3; part < len(g); part++ {
		gv, wv := strings.Fields(g[part]), strings.Fields(w[part])
		for j := 1; j < min(len(gv), len(wv)); j++ {
			if gv[j] != wv[j] {
				return fmt.Sprintf("n=%s %s at %s: %s value %d = %v, golden %v",
					g[0], g[1], g[2], gv[0], j-1, fromBits(gv[j]), fromBits(wv[j]))
			}
		}
		if len(gv) != len(wv) {
			return fmt.Sprintf("n=%s %s at %s: %d %s values, golden %d", g[0], g[1], g[2], len(gv)-1, gv[0], len(wv)-1)
		}
	}
	return "same values, different text"
}

func fromBits(h string) float64 {
	b, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		return math.NaN()
	}
	return math.Float64frombits(b)
}
