// Package fusion implements MPROS Knowledge Fusion (§5): "the coordination
// of individual data reports from a variety of sensors ... higher level
// than pure 'data fusion'".
//
// Diagnostic fusion (§5.3) combines incoming condition reports with
// Dempster-Shafer belief maintenance, "facilitated by use of a heuristic
// that groups similar failures into logical groups": a plain single-frame
// Dempster-Shafer treatment "assumes that any one failure precludes any
// other failures. However this is not the case in CBM, there can, in fact,
// be several failures at one time". Failures within a group "might be
// mistaken for one another, so they are logically related and should share
// probabilities"; failures in different groups stay independent, each group
// carrying its own frame of discernment and its own unknown mass.
//
// Prognostic fusion (§5.4) combines (time, probability) vectors by "taking
// the most conservative estimate at any given time period, and
// interpolating a smooth curve from point to point".
//
// Both fuse what each knowledge source currently says: a (component, group)
// block holds one entry per (condition, DC, knowledge source), that source's
// newest report, and a source's next report replaces its entry rather than
// adding to it.
package fusion

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dempster"
	"repro/internal/proto"
)

// Discounter supplies per-source reliability factors for Shafer discounting.
// Reliability returns α ∈ [0,1] for evidence from the named source whose
// latest report carries the given timestamp: 1 means fully reliable
// (combine as-is), 0 means worthless (evidence collapses to total
// ignorance). The health registry implements this from report age and DC
// liveness state.
type Discounter interface {
	Reliability(source string, lastReport time.Time) float64
}

// Groups maps a logical failure group name to its member condition names.
type Groups map[string][]string

// otherHypothesis is a reserved frame member added to every group so the
// frame of discernment is never exhausted by the known failures: even a
// single-condition group keeps a representable "some other failure"
// alternative, and with it a meaningful unknown mass. Without it a
// one-condition group's Θ would equal the condition itself and its belief
// would be degenerately 1 before any report arrived.
const otherHypothesis = "__other__"

// Validate checks that groups are non-empty and no condition appears twice.
func (g Groups) Validate() error {
	if len(g) == 0 {
		return fmt.Errorf("fusion: no failure groups")
	}
	seen := map[string]string{}
	// Sorted, so which error is reported does not depend on map order.
	for _, name := range slices.Sorted(maps.Keys(g)) {
		conds := g[name]
		if len(conds) == 0 {
			return fmt.Errorf("fusion: group %q is empty", name)
		}
		if len(conds) >= dempster.MaxHypotheses-1 {
			return fmt.Errorf("fusion: group %q too large", name)
		}
		for _, c := range conds {
			if c == otherHypothesis {
				return fmt.Errorf("fusion: condition name %q is reserved", c)
			}
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("fusion: condition %q in both %q and %q", c, prev, name)
			}
			seen[c] = name
		}
	}
	return nil
}

// ConditionBelief is one fused conclusion for the prioritized maintenance
// list.
type ConditionBelief struct {
	// Condition is the machine condition name.
	Condition string
	// Group is the logical failure group it belongs to.
	Group string
	// Belief is the fused Dempster-Shafer belief in this condition.
	Belief float64
	// Plausibility is the fused upper bound.
	Plausibility float64
	// Reports is how many reports have mentioned this condition.
	Reports int
	// Reliability is the best discount factor among the sources asserting
	// this condition (1 when discounting is disabled or all sources fresh).
	Reliability float64
	// Degraded marks conclusions whose every supporting source is being
	// discounted for staleness or ill health — the belief shown is weaker
	// than the evidence originally asserted.
	Degraded bool
}

// groupFrame is one logical failure group as the fuser numbers it. Its frame
// of discernment lists the members in registration order and then the
// reserved unknown hypothesis, so member position i is hypothesis i.
type groupFrame struct {
	name    string
	members []string
	frame   *dempster.Frame
	// rank is each member position's place in name order: what a block's
	// entries sort by first.
	rank []int
}

// memberRef locates a condition: its group's number and its position in the
// group.
type memberRef struct{ group, pos int }

// source is one knowledge source of one DC that the fuser has heard from.
// The DC "" is the anonymous source, never discounted.
type source struct{ dc, ks string }

// entry is one key's current report in a block: what source number src (the
// fuser's sources) last said about the member at pos. Every combination reads
// the report's belief, clamped, and the time it was sensed at (zero for an
// untimestamped one, which is never discounted or re-based); the entry also
// holds the report and the caller's number for it (nil and 0 for evidence
// AddReportFrom folded).
type entry struct {
	src, pos int32
	belief   float64
	at       time.Time
	report   *proto.Report
	num      int64
}

// compare orders a group's entries by key: member name, then DC, then
// knowledge source. Callers hold df.mu.
func (df *DiagnosticFuser) compare(g *groupFrame, a, b entry) int {
	sa, sb := &df.sources[a.src], &df.sources[b.src]
	return cmp.Or(cmp.Compare(g.rank[a.pos], g.rank[b.pos]), cmp.Compare(sa.dc, sb.dc), cmp.Compare(sa.ks, sb.ks))
}

// groupState is one (component, group) block: each key's current report, and
// per member position the reports folded and the fused prognostic vector. It
// is bounded by sources × members, however many reports arrive.
type groupState struct {
	// entries are sorted by key (compare): the order they combine in.
	entries []entry
	// reports counts the reports folded, by member position.
	reports []int
	// prognoses is each member's fused vector as its last fold left it; nil
	// until a report with a vector reaches the block.
	prognoses []proto.PrognosticVector
}

// DiagnosticFuser maintains fused beliefs per component, partitioned into
// logical failure groups, and the members' fused prognostic vectors. Safe
// for concurrent use.
type DiagnosticFuser struct {
	mu sync.RWMutex
	// groups are the failure groups numbered in name order, each with its
	// frame; members locates every condition in them. Both are construction
	// config.
	groups  []groupFrame
	members map[string]memberRef
	// states holds each component's blocks by group number; a group with no
	// evidence on the component has none.
	states map[string][]*groupState
	// sources numbers every source heard from, so an entry names its source
	// in four bytes.
	sources  []source
	sourceID map[source]int32
	// maxBelief is a fixed clamp constant set at construction, not
	// accumulated state.
	maxBelief   float64
	totalFusedN int
	// discounter is runtime wiring to the health registry.
	discounter Discounter
}

// SetDiscounter installs a reliability source for staleness discounting.
// Nil (the default) disables discounting: all evidence combines at full
// strength. Evidence from the anonymous source "" is never discounted.
func (df *DiagnosticFuser) SetDiscounter(d Discounter) {
	df.mu.Lock()
	defer df.mu.Unlock()
	df.discounter = d
}

// NewDiagnosticFuser builds a fuser over the given failure groups. Incoming
// report beliefs are clamped to 0.999, so every report leaves some mass on
// the group's unknown and no combination of reports is in total conflict.
func NewDiagnosticFuser(groups Groups) (*DiagnosticFuser, error) {
	if err := groups.Validate(); err != nil {
		return nil, err
	}
	df := &DiagnosticFuser{
		members:   make(map[string]memberRef),
		states:    make(map[string][]*groupState),
		sourceID:  make(map[source]int32),
		maxBelief: 0.999,
	}
	for g, name := range slices.Sorted(maps.Keys(groups)) {
		hyps := append(slices.Clone(groups[name]), otherHypothesis)
		frame, err := dempster.NewFrame(hyps...)
		if err != nil {
			return nil, err
		}
		members := hyps[:len(hyps)-1]
		rank := make([]int, len(members))
		for pos, c := range members {
			df.members[c] = memberRef{g, pos}
			for _, other := range members {
				if other < c {
					rank[pos]++
				}
			}
		}
		df.groups = append(df.groups, groupFrame{name: name, members: members, frame: frame, rank: rank})
	}
	return df, nil
}

// member locates a condition in the failure groups.
func (df *DiagnosticFuser) member(condition string) (memberRef, error) {
	ref, ok := df.members[condition]
	if !ok {
		return memberRef{}, fmt.Errorf("fusion: condition %q not in any failure group", condition)
	}
	return ref, nil
}

// group returns the number of the named group.
func (df *DiagnosticFuser) group(name string) (int, error) {
	g, ok := slices.BinarySearchFunc(df.groups, name, func(f groupFrame, name string) int { return cmp.Compare(f.name, name) })
	if !ok {
		return 0, fmt.Errorf("fusion: unknown group %q", name)
	}
	return g, nil
}

// GroupOf returns the logical group of a condition.
func (df *DiagnosticFuser) GroupOf(condition string) (string, error) {
	ref, err := df.member(condition)
	if err != nil {
		return "", err
	}
	return df.groups[ref.group].name, nil
}

// foldScratch is the working storage of one fold or read: the running fused
// mass and the next one, an entry's evidence and its discounted form, the
// discount factors, and the block's entries as a fold would leave them.
// Reads run concurrently under the read lock, so each takes its own from
// scratchPool rather than sharing one the fuser keeps.
type foldScratch struct {
	fused, next, ev, disc dempster.Mass
	factors               []float64
	entries               []entry
	// points holds a fold's re-based vectors (prognosis).
	points []proto.PrognosticPoint
}

var scratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// held returns the component's block of group g, nil while it holds no
// evidence. Callers hold df.mu.
func (df *DiagnosticFuser) held(component string, g int) *groupState {
	if blocks := df.states[component]; blocks != nil {
		return blocks[g]
	}
	return nil
}

// AddReport fuses one diagnostic report from the anonymous source — see
// AddReportFrom — and returns the updated fused belief in the condition.
// Anonymous evidence is never discounted.
func (df *DiagnosticFuser) AddReport(component, condition string, belief float64) (float64, error) {
	cs, err := df.AddReportFrom(component, condition, "", time.Time{}, belief)
	return cs.Belief, err
}

// AddReportFrom fuses one diagnostic report with no knowledge source and no
// prognostic vector: Fold of a report from the DC named source asserting the
// condition on the component with the given belief, sensed at the given time.
func (df *DiagnosticFuser) AddReportFrom(component, condition, dc string, at time.Time, belief float64) (ConditionState, error) {
	cs, _, err := df.fold(component, condition, source{dc: dc}, entry{belief: belief, at: at}, nil)
	return cs, err
}

// Fold takes r, numbered num by the caller, in as its knowledge source's
// current report on the pair (r.SensedObjectID, r.MachineConditionID): the
// block's entry under the key (condition, r.DCID, r.KnowledgeSourceID) becomes
// r, unless it holds a report sensed later (a tie goes to r). The report is
// counted either way. Fold then recombines the block's entries (§5.3: the
// update reweights every other member of the group and the group's unknown
// mass) and fuses the pair's entry vectors (§5.4). It returns the pair's state
// as that combination read it, so a caller posting the conclusion need not ask
// again, and the number the retention rule let go: the displaced entry's, num
// when r is older than the entry, or 0.
//
// keep, when not nil, runs once the fold is decided and before it is kept,
// under the fuser's lock: an error from it refuses the report, which then
// changes nothing. It must not call into the fuser. The fuser keeps r, which
// the caller must not change afterwards.
func (df *DiagnosticFuser) Fold(r *proto.Report, num int64, keep func() error) (ConditionState, int64, error) {
	if err := r.Prognostics.Validate(); err != nil {
		return ConditionState{}, 0, fmt.Errorf("fusion: %w", err)
	}
	return df.fold(r.SensedObjectID, r.MachineConditionID, source{r.DCID, r.KnowledgeSourceID},
		entry{belief: r.Belief, at: r.Timestamp, report: r, num: num}, keep)
}

// fold is Fold of the entry e from src about condition on component.
func (df *DiagnosticFuser) fold(component, condition string, src source, e entry, keep func() error) (ConditionState, int64, error) {
	if component == "" {
		return ConditionState{}, 0, fmt.Errorf("fusion: empty component")
	}
	if !(e.belief >= 0 && e.belief <= 1) { // NaN too
		return ConditionState{}, 0, fmt.Errorf("fusion: belief %g outside [0,1]", e.belief)
	}
	ref, err := df.member(condition)
	if err != nil {
		return ConditionState{}, 0, err
	}
	e.pos, e.belief = int32(ref.pos), min(e.belief, df.maxBelief)
	g := &df.groups[ref.group]
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	df.mu.Lock()
	defer df.mu.Unlock()
	id, known := df.sourceID[src]
	if !known {
		// A source number outlives a refused fold; what it names does not
		// change.
		id = int32(len(df.sources))
		df.sources = append(df.sources, src)
		df.sourceID[src] = id
	}
	e.src = id
	// The block as the fold would leave it, in scratch: a refused fold keeps
	// nothing.
	next := groupState{entries: sc.entries[:0]}
	st := df.held(component, ref.group)
	if st != nil {
		next.entries, next.reports = append(next.entries, st.entries...), st.reports
	}
	var drop int64
	i, found := slices.BinarySearchFunc(next.entries, e, func(x, e entry) int { return df.compare(g, x, e) })
	switch {
	case !found:
		next.entries = slices.Insert(next.entries, i, e)
	case e.at.Before(next.entries[i].at):
		drop = e.num
	default:
		drop = next.entries[i].num
		next.entries[i] = e
	}
	sc.entries = next.entries
	defer clear(sc.entries) // the pool keeps no report
	var out [1]ConditionState
	if _, err := df.readLocked(g, &next, ref.pos, out[:], sc); err != nil {
		return ConditionState{}, 0, err
	}
	cs := &out[0]
	cs.Reports++
	if cs.Prognostics, err = prognosis(next.entries, e.pos, cs.UpdatedAt, &sc.points); err != nil {
		return ConditionState{}, 0, err
	}
	if keep != nil {
		if err := keep(); err != nil {
			return ConditionState{}, 0, err
		}
	}
	if st == nil {
		blocks := df.states[component]
		if blocks == nil {
			blocks = make([]*groupState, len(df.groups))
			df.states[component] = blocks
		}
		st = &groupState{reports: make([]int, len(g.members))}
		blocks[ref.group] = st
	}
	st.entries = append(st.entries[:0], next.entries...)
	st.reports[ref.pos]++
	if st.prognoses == nil && cs.Prognostics != nil {
		st.prognoses = make([]proto.PrognosticVector, len(g.members))
	}
	if st.prognoses != nil {
		st.prognoses[ref.pos] = cs.Prognostics
	}
	df.totalFusedN++
	return *cs, drop, nil
}

// appendFactorsLocked appends, aligned with entries, the discount factor each
// entry carries right now: its DC's reliability at the entry's sensed-at
// time, or 1 for the anonymous source and for untimestamped evidence. The
// caller has checked that a discounter is installed and holds df.mu (read or
// write).
func (df *DiagnosticFuser) appendFactorsLocked(dst []float64, entries []entry) []float64 {
	for i := range entries {
		e := &entries[i]
		alpha := 1.0
		if dc := df.sources[e.src].dc; dc != "" && !e.at.IsZero() {
			alpha = df.discounter.Reliability(dc, e.at)
		}
		dst = append(dst, alpha)
	}
	return dst
}

// factorAt reads entry i's factor out of fusedLocked's factors, nil while no
// discounter is installed.
func factorAt(factors []float64, i int) float64 {
	if factors == nil {
		return 1
	}
	return factors[i]
}

// fusedLocked combines the entries' simple supports, each Shafer-discounted
// by its factor, in key order, and returns the factors it discounted by: the
// fused mass is a pure function of the entries and those factors, whatever
// order the reports arrived in. The fused mass and the factors live in sc.
// Callers hold df.mu.
func (df *DiagnosticFuser) fusedLocked(g *groupFrame, entries []entry, sc *foldScratch) (fused *dempster.Mass, factors []float64, err error) {
	if df.discounter != nil {
		sc.factors = df.appendFactorsLocked(sc.factors[:0], entries)
		factors = sc.factors
	}
	fused, next := &sc.fused, &sc.next
	fused.SetVacuous(g.frame)
	for i := range entries {
		e := &entries[i]
		m := &sc.ev
		if err = m.SetSimpleSupport(g.frame, dempster.Singleton(int(e.pos)), e.belief); err != nil {
			return nil, nil, err
		}
		if alpha := factorAt(factors, i); alpha < 1 {
			if err = dempster.DiscountInto(&sc.disc, m, alpha); err != nil {
				return nil, nil, err
			}
			m = &sc.disc
		}
		if _, err = dempster.CombineInto(next, fused, m); err != nil {
			return nil, nil, err
		}
		fused, next = next, fused
	}
	return fused, factors, nil
}

// readLocked is the one fused read of a block of group g: it combines the
// block's entries once in sc, fills out[i] with the state of the member at
// position first+i, and returns the factors the combination discounted by,
// which are sc's. ConditionState, GroupState, RankedAll and a fold are
// projections of it. Callers hold df.mu.
func (df *DiagnosticFuser) readLocked(g *groupFrame, st *groupState, first int, out []ConditionState, sc *foldScratch) ([]float64, error) {
	fused, factors, err := df.fusedLocked(g, st.entries, sc)
	if err != nil {
		return nil, err
	}
	unknown := fused.Unknown()
	for i := range out {
		pos := first + i
		out[i] = ConditionState{ConditionBelief: ConditionBelief{
			Condition: g.members[pos], Group: g.name, Reliability: 1,
		}, Unknown: unknown}
		if st.reports != nil {
			out[i].Reports = st.reports[pos]
		}
		if st.prognoses != nil {
			out[i].Prognostics = st.prognoses[pos]
		}
	}
	// Each member's newest evidence, and the best factor among its entries:
	// a conclusion is degraded only when no fresh report backs it.
	var seen uint64
	for j := range st.entries {
		e := &st.entries[j]
		i := int(e.pos) - first
		if i < 0 || i >= len(out) {
			continue
		}
		cs := &out[i]
		if e.at.After(cs.UpdatedAt) {
			cs.UpdatedAt = e.at
		}
		if a := factorAt(factors, j); seen&(1<<i) == 0 || a > cs.Reliability {
			cs.Reliability, seen = a, seen|1<<i
		}
	}
	for i := range out {
		out[i].Degraded = out[i].Reliability < 1-1e-9
	}
	// One walk over the focal sets serves every member's belief and
	// plausibility. It runs in ascending focal-set order — the order
	// dempster.Mass.Belief and Plausibility sum in — so each sum is
	// bit-identical to theirs.
	vals := fused.Values()
	for k, focal := range fused.FocalSets() {
		v := vals[k]
		for i := range out {
			hyp := dempster.Singleton(first + i)
			if hyp.Contains(focal) && !focal.IsEmpty() {
				out[i].Belief += v
			}
			if !focal.Intersect(hyp).IsEmpty() {
				out[i].Plausibility += v
			}
		}
	}
	return factors, nil
}

// Belief returns the fused belief in a condition on a component (0 when no
// reports have arrived).
func (df *DiagnosticFuser) Belief(component, condition string) (float64, error) {
	cs, err := df.ConditionState(component, condition)
	return cs.Belief, err
}

// Unknown returns the §5.3 "likelihood of unknown possibilities" for a
// component's failure group — 1.0 before any report arrives.
func (df *DiagnosticFuser) Unknown(component, group string) (float64, error) {
	g, err := df.group(group)
	if err != nil {
		return 0, err
	}
	// The unknown mass belongs to the group; any member reads it.
	cs, err := df.ConditionState(component, df.groups[g].members[0])
	return cs.Unknown, err
}

// RankedAll returns, for every component with at least one fused report,
// every condition reported against it ranked by fused belief descending —
// the prioritized list the PDME shows maintenance personnel — keyed by
// component. It is computed under a single lock acquisition so the result
// is one consistent snapshot: no report fused concurrently with the call
// can appear for one component and be missing for another.
func (df *DiagnosticFuser) RankedAll() map[string][]ConditionBelief {
	df.mu.RLock()
	defer df.mu.RUnlock()
	out := make(map[string][]ConditionBelief, len(df.states))
	//lint:allow maporder each component's ranking is computed independently into a map; order cannot affect any entry
	for component, blocks := range df.states {
		out[component] = df.rankedLocked(blocks)
	}
	return out
}

// rankedLocked ranks one component: the reported members of each of its
// blocks' reads, sorted. A block whose evidence cannot be combined
// contributes no rows. Callers hold df.mu.
func (df *DiagnosticFuser) rankedLocked(blocks []*groupState) []ConditionBelief {
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	var out []ConditionBelief
	for gi, st := range blocks {
		if st == nil {
			continue
		}
		g := &df.groups[gi]
		states := make([]ConditionState, len(g.members))
		if _, err := df.readLocked(g, st, 0, states, sc); err != nil {
			continue
		}
		for _, cs := range states {
			if cs.Reports > 0 {
				out = append(out, cs.ConditionBelief)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:allow floateq sort tie-break needs a strict weak order; a tolerance would make it intransitive
		if out[i].Belief != out[j].Belief {
			return out[i].Belief > out[j].Belief
		}
		return out[i].Condition < out[j].Condition
	})
	return out
}

// ConditionState is the complete fused read-side state of one
// (component, condition) pair: everything a belief query surface serves,
// computed in one shot.
type ConditionState struct {
	ConditionBelief
	// Unknown is the residual unknown mass of the condition's whole group on
	// this component (1.0 before any report).
	Unknown float64
	// UpdatedAt is the sensed-at time of the newest report the pair's entries
	// hold (zero before any timestamped report): what a shard stamps the
	// pair's summary with and an aggregator orders summaries by. It never
	// goes back: a late report changes no entry.
	UpdatedAt time.Time
	// Prognostics is the pair's fused §7.3 vector, its horizons counted from
	// UpdatedAt (nil when no entry holds one). It is the fuser's own and
	// read-only: a later fold replaces it rather than changes it.
	Prognostics proto.PrognosticVector
}

// vacuousState is a pair's state before any report reaches its group.
func vacuousState(condition, group string) ConditionState {
	return ConditionState{ConditionBelief: ConditionBelief{
		Condition: condition, Group: group, Plausibility: 1, Reliability: 1,
	}, Unknown: 1}
}

// ConditionState returns the pair's fused belief, plausibility, group
// unknown, report count, health-discount fields and prognostic vector under
// a single lock acquisition and a single evidence combination: one member of
// the group read. Belief and Unknown each return one field of it.
func (df *DiagnosticFuser) ConditionState(component, condition string) (ConditionState, error) {
	ref, err := df.member(condition)
	if err != nil {
		return ConditionState{}, err
	}
	g := &df.groups[ref.group]
	df.mu.RLock()
	defer df.mu.RUnlock()
	st := df.held(component, ref.group)
	if st == nil {
		return vacuousState(condition, g.name), nil // no reports yet for the pair's group
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	var out [1]ConditionState
	if _, err := df.readLocked(g, st, ref.pos, out[:], sc); err != nil {
		return ConditionState{}, err
	}
	return out[0], nil
}

// Prognosis returns the pair's fused prognostic vector, ConditionState's
// Prognostics, without combining any evidence: nil when no entry of the pair
// holds one or the condition is in no group.
func (df *DiagnosticFuser) Prognosis(component, condition string) proto.PrognosticVector {
	ref, ok := df.members[condition]
	if !ok {
		return nil
	}
	df.mu.RLock()
	defer df.mu.RUnlock()
	if st := df.held(component, ref.group); st != nil && st.prognoses != nil {
		return st.prognoses[ref.pos]
	}
	return nil
}

// GroupState is the complete fused read of one (component, failure group)
// block — the unit one report can change (§5.3): evidence for any member
// reweights every other member and the group's unknown mass, and nothing
// outside the block.
type GroupState struct {
	// Members holds every member condition's state, reported or not, in the
	// group's registration order. Each carries the group's unknown mass.
	Members []ConditionState
	// Factors are the discount factors the read applied, one per entry of
	// the block in key order; nil while no discounter is installed. Members
	// is a pure function of the block's entries and these: until a report
	// reaches the block, a later read differs exactly when
	// AppendGroupFactors does.
	Factors []float64
}

// GroupState fuses one (component, group) block once and returns every
// member's state from that one combination, under a single lock
// acquisition. A block with no evidence reads vacuous.
func (df *DiagnosticFuser) GroupState(component, group string) (GroupState, error) {
	gi, err := df.group(group)
	if err != nil {
		return GroupState{}, err
	}
	g := &df.groups[gi]
	gs := GroupState{Members: make([]ConditionState, len(g.members))}
	df.mu.RLock()
	defer df.mu.RUnlock()
	st := df.held(component, gi)
	if st == nil {
		for i, cond := range g.members {
			gs.Members[i] = vacuousState(cond, group)
		}
		return gs, nil
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	factors, err := df.readLocked(g, st, 0, gs.Members, sc)
	if err != nil {
		return GroupState{}, err
	}
	gs.Factors = slices.Clone(factors)
	return gs, nil
}

// AppendGroupFactors appends to dst what GroupState's Factors would be right
// now, without combining any evidence — one Reliability call per discounted
// entry — and returns the extended slice. It appends nothing while no
// discounter is installed, the group is unknown or the block holds no
// evidence. Into a buffer with room it allocates nothing.
func (df *DiagnosticFuser) AppendGroupFactors(dst []float64, component, group string) []float64 {
	g, err := df.group(group)
	if err != nil {
		return dst
	}
	df.mu.RLock()
	defer df.mu.RUnlock()
	st := df.held(component, g)
	if st == nil || df.discounter == nil {
		return dst
	}
	return df.appendFactorsLocked(dst, st.entries)
}

// Blocks returns every (component, failure group) pair that holds evidence,
// sorted by component then group.
func (df *DiagnosticFuser) Blocks() [][2]string {
	df.mu.RLock()
	defer df.mu.RUnlock()
	var out [][2]string
	for _, component := range slices.Sorted(maps.Keys(df.states)) {
		for g, st := range df.states[component] {
			if st != nil {
				out = append(out, [2]string{component, df.groups[g].name})
			}
		}
	}
	return out
}

// ReportCount returns the total number of fused reports.
func (df *DiagnosticFuser) ReportCount() int {
	df.mu.RLock()
	defer df.mu.RUnlock()
	return df.totalFusedN
}

// PairCount is one reported pair's report count, as a checkpoint keeps it:
// the entries a block holds say what each source currently says, not how
// many reports said it.
type PairCount struct {
	Component string `json:"component"`
	Condition string `json:"condition"`
	Reports   int    `json:"reports"`
}

// Held is what a checkpoint keeps of the fuser, read under one lock: the
// report each entry holds, appended to reports (each source's current report
// as Fold took it; AddReportFrom's entries hold none), every reported pair's
// count, and the total number of fused reports. Both lists go by component
// name, then group; reports by key within a block, counts by member position.
func (df *DiagnosticFuser) Held(reports []*proto.Report) ([]*proto.Report, []PairCount, int) {
	df.mu.RLock()
	defer df.mu.RUnlock()
	var counts []PairCount
	for _, component := range slices.Sorted(maps.Keys(df.states)) {
		for g, st := range df.states[component] {
			if st == nil {
				continue
			}
			for i := range st.entries {
				if r := st.entries[i].report; r != nil {
					reports = append(reports, r)
				}
			}
			for pos, n := range st.reports {
				if n > 0 {
					counts = append(counts, PairCount{Component: component, Condition: df.groups[g].members[pos], Reports: n})
				}
			}
		}
	}
	return reports, counts, df.totalFusedN
}

// SetCounts puts back the counts Held returned, once the reports a checkpoint
// kept are folded again: each listed pair's count, where its block holds
// evidence, and the total.
func (df *DiagnosticFuser) SetCounts(pairs []PairCount, total int) {
	df.mu.Lock()
	defer df.mu.Unlock()
	for _, pc := range pairs {
		if ref, ok := df.members[pc.Condition]; ok {
			if st := df.held(pc.Component, ref.group); st != nil {
				st.reports[ref.pos] = pc.Reports
			}
		}
	}
	df.totalFusedN = total
}

// NaiveFuser is the E8 ablation baseline: a single global frame over ALL
// conditions, exactly the construction §5.3 rejects because it "assumes
// mutual exclusivity of failures". It shares the DiagnosticFuser interface
// shape for belief queries.
type NaiveFuser struct {
	mu    sync.Mutex
	frame *dempster.Frame
	state map[string]*dempster.Mass // component -> mass
	// ev and next are a fold's evidence and its combination, swapped into
	// the component's mass on success.
	ev, next dempster.Mass
}

// NewNaiveFuser builds the single-frame baseline over all conditions (plus
// the reserved "other" hypothesis, matching the grouped fuser's frames).
func NewNaiveFuser(conditions []string) (*NaiveFuser, error) {
	frame, err := dempster.NewFrame(append(append([]string(nil), conditions...), otherHypothesis)...)
	if err != nil {
		return nil, err
	}
	return &NaiveFuser{frame: frame, state: make(map[string]*dempster.Mass)}, nil
}

// AddReport fuses a report into the single global frame.
func (nf *NaiveFuser) AddReport(component, condition string, belief float64) (float64, error) {
	if belief > 0.999 {
		belief = 0.999
	}
	nf.mu.Lock()
	defer nf.mu.Unlock()
	m, ok := nf.state[component]
	if !ok {
		m = dempster.VacuousMass(nf.frame)
	}
	hyp, err := nf.frame.Hypothesis(condition)
	if err != nil {
		return 0, err
	}
	if err := nf.ev.SetSimpleSupport(nf.frame, hyp, belief); err != nil {
		return 0, err
	}
	if _, err := dempster.CombineInto(&nf.next, m, &nf.ev); err != nil {
		return 0, err
	}
	*m, nf.next = nf.next, *m
	nf.state[component] = m
	return m.Belief(hyp), nil
}

// Belief returns the fused belief in a condition.
func (nf *NaiveFuser) Belief(component, condition string) (float64, error) {
	nf.mu.Lock()
	defer nf.mu.Unlock()
	m, ok := nf.state[component]
	if !ok {
		return 0, nil
	}
	hyp, err := nf.frame.Hypothesis(condition)
	if err != nil {
		return 0, err
	}
	return m.Belief(hyp), nil
}
