package main

import (
	"math"
	"sort"
	"time"
)

// speedometer measures how fast the host is running right now. The 2-core
// VMs this benchmark runs on drift in CPU speed by ±30 % over tens of
// seconds (a fixed spin loop shows it), which is more than any regression
// bound. So every timed phase runs a fixed kernel between operations — float
// arithmetic over a cache-resident buffer, byte hashing, and a dependent
// walk through a 256 KiB permutation — and the run's time-based end-to-end
// metrics are divided by the phase's speed factor: the kernel's median
// duration over speedRefNS, its duration on the reference host when idle.
// The kernel belongs to the harness and never changes, so a change in the
// product moves the metrics exactly as it would on a steady host.
type speedometer struct {
	floats []float64
	bytes  []byte
	chain  []int32
	times  []float64
	spent  time.Duration
	sink   float64
}

// speedRefNS is the kernel's duration on the idle reference host.
const speedRefNS = 165e3

func newSpeedometer() *speedometer {
	s := &speedometer{
		floats: make([]float64, 1<<13),
		bytes:  make([]byte, 1<<15),
		chain:  make([]int32, 1<<16),
	}
	for i := range s.floats {
		s.floats[i] = float64(i%97) * 0.01
	}
	for i := range s.bytes {
		s.bytes[i] = byte(i * 31)
	}
	// A single cycle through every slot, with a fixed stride coprime to the
	// length, so the walk below misses the nearest cache.
	n := int32(len(s.chain))
	for i := int32(0); i < n; i++ {
		s.chain[i] = (i + 10007) % n
	}
	return s
}

// sample runs the kernel twice and times the second pass, whose working set
// the first has pulled back into the caches the operation before it had
// filled with its own. It returns how long both passes took.
func (s *speedometer) sample() time.Duration {
	t0 := time.Now()
	s.kernel()
	t1 := time.Now()
	s.kernel()
	t2 := time.Now()
	s.times = append(s.times, float64(t2.Sub(t1)))
	s.spent += t2.Sub(t0)
	return t2.Sub(t0)
}

func (s *speedometer) kernel() {
	acc := 0.0
	for r := 0; r < 4; r++ {
		for i, v := range s.floats {
			acc += v*v + math.Sqrt(v+float64(i&3))
		}
	}
	h := uint32(2166136261)
	for r := 0; r < 2; r++ {
		for _, b := range s.bytes {
			h = (h ^ uint32(b)) * 16777619
		}
	}
	at := int32(h % uint32(len(s.chain)))
	for i := 0; i < 1<<13; i++ {
		at = s.chain[at]
	}
	s.sink += acc + float64(at)
}

// factor is the host's slowdown against the reference: above 1 when the
// host is slower. It is 1 before any sample.
func (s *speedometer) factor() float64 {
	if len(s.times) == 0 {
		return 1
	}
	c := append([]float64(nil), s.times...)
	sort.Float64s(c)
	return c[len(c)/2] / speedRefNS
}
