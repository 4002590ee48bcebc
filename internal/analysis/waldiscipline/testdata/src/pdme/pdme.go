// Package pdme is a testdata stand-in for the PDME accept path
// (waldiscipline keys on the final import-path segment).
package pdme

type model struct{}

func (m *model) Create(class string, value any) {}

func (m *model) Set(id string, props []string, write func()) {}

type registry struct{}

func (r *registry) ObserveReport(id string) {}

type dedup struct{}

func (d *dedup) Mark(key string) {}

type engine struct {
	model    *model
	health   *registry
	dedup    *dedup
	received int
}

// appendJournal journals body(0) … body(n-1) with one write and one fsync,
// like the real one.
func (p *engine) appendJournal(n int, body func(i int) []byte) error { return nil }

func one(rec []byte) func(int) []byte { return func(int) []byte { return rec } }

func (p *engine) Health() *registry { return p.health }

// goodAccept follows the contract: fsync the WAL, then mutate.
func (p *engine) goodAccept(rec []byte, id string) error {
	if err := p.appendJournal(1, one(rec)); err != nil {
		return err
	}
	p.model.Create(id, nil)
	p.Health().ObserveReport(id)
	p.dedup.Mark(id)
	p.received++
	return nil
}

// badOrder mutates before the append: a crash in the gap loses the envelope
// but keeps its effect.
func (p *engine) badOrder(rec []byte, id string) error {
	p.model.Create(id, nil) // want "mutates checkpointed state before the appendJournal write-ahead"
	if err := p.appendJournal(1, one(rec)); err != nil {
		return err
	}
	return nil
}

// badPost posts the report object, holding the report, and rewrites a
// conclusion in place before the append: the post runs fusion, so the effect
// outlives a crash that loses the envelope.
func (p *engine) badPost(rec []byte, id string) error {
	p.model.Create(id, rec)                        // want "Create mutates checkpointed state before the appendJournal write-ahead"
	p.model.Set(id, []string{"belief"}, func() {}) // want "Set mutates checkpointed state before the appendJournal write-ahead"
	return p.appendJournal(1, one(rec))
}

// goodPost posts after the append.
func (p *engine) goodPost(rec []byte, id string) error {
	if err := p.appendJournal(1, one(rec)); err != nil {
		return err
	}
	p.model.Create(id, rec)
	p.model.Set(id, []string{"belief"}, func() {})
	return nil
}

// A discarded append turns "journaled before mutation" into "maybe
// journaled".
func (p *engine) bareAppend(rec []byte, id string) {
	p.appendJournal(1, one(rec)) // want "appendJournal error discarded"
	p.model.Create(id, nil)
}

func (p *engine) blankAppend(rec []byte, id string) {
	_ = p.appendJournal(1, one(rec)) // want "appendJournal error discarded"
	p.model.Create(id, nil)
}

// apply is the engine's own post-fuse-mark-count body; the accept that calls
// it is held to the order like one that spells the mutations out.
func (p *engine) apply(id string) {
	p.model.Create(id, nil)
	p.dedup.Mark(id)
}

func (p *engine) badApply(rec []byte, id string) error {
	p.apply(id) // want "apply mutates checkpointed state before the appendJournal write-ahead"
	return p.appendJournal(1, one(rec))
}

// replay never calls appendJournal: re-applying records already in the WAL
// is out of scope.
func (p *engine) replay(id string) {
	p.model.Create(id, nil)
	p.dedup.Mark(id)
}

// Mutations not rooted at the receiver are someone else's state.
func (p *engine) foreign(other *model, rec []byte, id string) error {
	other.Create(id, nil)
	if err := p.appendJournal(1, one(rec)); err != nil {
		return err
	}
	return nil
}

// The allow escape hatch: a reviewed pre-journal effect.
func (p *engine) allowedPrefetch(rec []byte, id string) error {
	p.dedup.Mark(id) //lint:allow waldiscipline testdata exemplar of a reviewed pre-journal mark
	if err := p.appendJournal(1, one(rec)); err != nil {
		return err
	}
	return nil
}

// goodBatch journals the whole run with one append, then applies report by
// report — the per-report closure is part of the function.
func (p *engine) goodBatch(recs [][]byte, ids []string) []error {
	errs := make([]error, len(ids))
	if err := p.appendJournal(len(recs), func(i int) []byte { return recs[i] }); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i, id := range ids {
		errs[i] = func() error {
			p.model.Create(id, nil)
			p.Health().ObserveReport(id)
			p.dedup.Mark(id)
			p.received++
			return nil
		}()
	}
	return errs
}

// badBatch applies inside the per-report loop that runs before the batch
// append: the first report of the run is fused before any of it is durable.
func (p *engine) badBatch(recs [][]byte, ids []string) error {
	for _, id := range ids {
		if id == "" {
			continue
		}
		p.model.Create(id, nil) // want "mutates checkpointed state before the appendJournal write-ahead"
		p.dedup.Mark(id)        // want "mutates checkpointed state before the appendJournal write-ahead"
	}
	if err := p.appendJournal(len(recs), func(i int) []byte { return recs[i] }); err != nil {
		return err
	}
	return nil
}

// badBatchBody marks from inside the callback that encodes the records: it
// runs before the write it feeds.
func (p *engine) badBatchBody(recs [][]byte, ids []string) error {
	return p.appendJournal(len(recs), func(i int) []byte {
		p.dedup.Mark(ids[i]) // want "mutates checkpointed state before the appendJournal write-ahead"
		return recs[i]
	})
}
