package oosm

import (
	"slices"
	"sync"
)

// EventKind enumerates the model change notifications of §4.5.
type EventKind int

const (
	// ObjectCreated fires when a new object instance is created.
	ObjectCreated EventKind = iota
	// ObjectDeleted fires when an object is deleted.
	ObjectDeleted
	// PropertyChanged fires once per changed property on SetProps or Set.
	PropertyChanged
	// ObjectUpdated fires exactly once per SetProps or Set call, after the
	// per-property PropertyChanged events. Subscribers that react to a write
	// as a whole (cache invalidation, display refresh) listen here instead
	// of once per property.
	ObjectUpdated
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case ObjectCreated:
		return "object-created"
	case ObjectDeleted:
		return "object-deleted"
	case PropertyChanged:
		return "property-changed"
	case ObjectUpdated:
		return "object-updated"
	default:
		return "unknown"
	}
}

// Event describes one model change.
type Event struct {
	Kind     EventKind
	Object   ObjectID
	Property string // set for PropertyChanged
	// Value is the new value for PropertyChanged, and for ObjectCreated the
	// creator's payload (Model.CreateWith; nil from Create).
	Value any
}

// Subscription is a handle for cancelling an event subscription.
type Subscription struct {
	hub *eventHub
	id  int
}

// Cancel removes the subscription; it is safe to call more than once.
func (s *Subscription) Cancel() {
	if s == nil || s.hub == nil {
		return
	}
	s.hub.remove(s.id)
	s.hub = nil
}

// Handler receives model events. Handlers run synchronously on the mutating
// goroutine (the paper's OLE Automation events are likewise synchronous
// callbacks); handlers must not block and must not mutate the model
// reentrantly in ways that could deadlock their own goroutine's locks.
type Handler func(Event)

type subscriber struct {
	id     int
	class  string
	kind   EventKind
	handle Handler
}

type eventHub struct {
	mu     sync.RWMutex
	nextID int
	// subs is copy-on-write: add and remove install a new slice and never
	// write into one a publish may be ranging over, so publish reads the
	// current slice without copying it and handlers can subscribe and cancel
	// reentrantly.
	subs []subscriber
}

func newEventHub() *eventHub { return &eventHub{} }

func (h *eventHub) publish(e Event) {
	h.mu.RLock()
	subs := h.subs
	h.mu.RUnlock()
	for _, s := range subs {
		if s.class == e.Object.Class && s.kind == e.Kind {
			s.handle(e)
		}
	}
}

func (h *eventHub) add(s subscriber) *Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	s.id = h.nextID
	h.subs = append(slices.Clip(h.subs), s)
	return &Subscription{hub: h, id: s.id}
}

func (h *eventHub) remove(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, s := range h.subs {
		if s.id == id {
			h.subs = slices.Concat(h.subs[:i], h.subs[i+1:])
			return
		}
	}
}

// SubscribeClass registers a handler for events of the given kind on objects
// of one class. Knowledge Fusion uses this to "automatically process failure
// prediction reports as they are delivered to the OOSM" (§4.5).
func (m *Model) SubscribeClass(class string, kind EventKind, fn Handler) *Subscription {
	return m.events.add(subscriber{class: class, kind: kind, handle: fn})
}
