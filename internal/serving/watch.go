package serving

import (
	"sync"
	"sync/atomic"
)

// Notice announces that fused state affecting a component changed: one
// notice per completed delivery, emitted when the write window closes.
// Notices are wake-ups, not data — a consumer reads the current view through
// the cache on receipt, so losing a notice under backpressure costs latency,
// never correctness.
type Notice struct {
	// Component is the mutated component; Condition the delivered condition
	// (other conditions in its group were reweighted too).
	Component string `json:"component"`
	Condition string `json:"condition"`
	// Seq numbers the notices this subscription attempted to deliver
	// (dropped ones included), so gaps are visible to the consumer.
	Seq uint64 `json:"seq"`
	// Dropped is the subscription's cumulative drop count at send time.
	Dropped uint64 `json:"dropped"`
}

// Subscription is one streaming watch: a bounded notice channel plus drop
// accounting. A slow consumer never blocks a delivery — when the buffer is
// full the notice is dropped and counted instead.
type Subscription struct {
	// C delivers notices; it is closed by Close (and by Views.Close).
	C <-chan Notice

	v         *Views
	component string // "" watches every component
	ch        chan Notice

	mu      sync.Mutex
	closed  bool
	seq     uint64
	dropped atomic.Uint64
}

// Watch subscribes to change notices, for every component (component == "")
// or one component. buf bounds the notice buffer (0: 16).
func (v *Views) Watch(component string, buf int) *Subscription {
	if buf <= 0 {
		buf = defaultWatchBuffer
	}
	ch := make(chan Notice, buf)
	s := &Subscription{v: v, component: component, ch: ch, C: ch}
	v.subMu.Lock()
	v.subs[s] = struct{}{}
	v.subMu.Unlock()
	return s
}

// Dropped returns how many notices this subscription has dropped on a full
// buffer.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unsubscribes and closes C. Safe to call more than once, and
// concurrently with notice delivery.
func (s *Subscription) Close() {
	s.v.subMu.Lock()
	delete(s.v.subs, s)
	s.v.subMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.ch)
}

// offer delivers a notice without ever blocking: full buffer → drop + count.
func (s *Subscription) offer(component, condition string) (delivered bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.seq++
	n := Notice{
		Component: component,
		Condition: condition,
		Seq:       s.seq,
		Dropped:   s.dropped.Load(),
	}
	select {
	case s.ch <- n:
		return true
	default:
		s.dropped.Add(1)
		return false
	}
}

// notify fans a change out to every matching subscription.
func (v *Views) notify(component, condition string) {
	v.subMu.Lock()
	subs := make([]*Subscription, 0, len(v.subs))
	//lint:allow maporder each subscription has its own channel; cross-subscription delivery order is unobservable
	for s := range v.subs {
		if s.component == "" || s.component == component {
			subs = append(subs, s)
		}
	}
	v.subMu.Unlock()
	for _, s := range subs {
		if s.offer(component, condition) {
			v.notices.Add(1)
		} else {
			v.noticeDrops.Add(1)
		}
	}
}
