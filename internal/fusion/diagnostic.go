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
	// byName is the member positions in name order: the order a snapshot
	// lists a block's conditions in.
	byName []int
}

// names returns the members in set, in name order (nil when there are none).
func (g *groupFrame) names(set dempster.Set) []string {
	var out []string
	for _, pos := range g.byName {
		if set.Contains(dempster.Singleton(pos)) {
			out = append(out, g.members[pos])
		}
	}
	return out
}

// memberRef locates a condition: its group's number and its position in the
// group.
type memberRef struct{ group, pos int }

// sourceEvidence is the running evidence one knowledge source has
// contributed to a (component, group) block. Keeping sources separate (and
// combining at query time) lets each source's whole contribution be
// discounted by its current reliability: Dempster combination is
// commutative and associative, so splitting per source changes nothing
// when every α is 1.
type sourceEvidence struct {
	// id names the source ("" for reports with no source attribution).
	id   string
	mass dempster.Mass
	// lastReport is the latest sensed-at timestamp this source asserted
	// (zero for untimestamped reports — never discounted).
	lastReport time.Time
	// conditions is the set of members this source has reported.
	conditions dempster.Set
}

// groupState is the running belief state of one (component, group) block:
// a few small arrays. Positions in reports and newest, and the bits of a
// source's conditions, are the group's member positions; the group's frame
// is the fuser's, built once at construction.
type groupState struct {
	// sources holds per-knowledge-source evidence sorted by id: the order
	// the sources combine in.
	sources []sourceEvidence
	// reports counts report arrivals by member position.
	reports []int
	// newest is each member's UpdatedAt, by position: the sensed-at time of
	// the newest evidence folded in — a max, so a late report never moves it
	// back.
	newest []time.Time
}

func newGroupState(members int) *groupState {
	return &groupState{reports: make([]int, members), newest: make([]time.Time, members)}
}

// source returns the index of the source with the given id in sources, or
// where it would be inserted.
func (st *groupState) source(id string) (int, bool) {
	return slices.BinarySearchFunc(st.sources, id, func(s sourceEvidence, id string) int { return cmp.Compare(s.id, id) })
}

// DiagnosticFuser maintains fused beliefs per component, partitioned into
// logical failure groups. Safe for concurrent use.
type DiagnosticFuser struct {
	mu sync.RWMutex
	// groups are the failure groups numbered in name order, each with its
	// frame; members locates every condition in them. Neither is
	// checkpointed: failure-group topology is construction config, and
	// Restore refuses snapshots that disagree with it.
	groups  []groupFrame
	members map[string]memberRef
	// states holds each component's blocks by group number; a group with no
	// evidence on the component has none.
	states map[string][]*groupState
	// maxBelief is a fixed clamp constant set at construction, not
	// accumulated state.
	maxBelief   float64
	totalFusedN int
	// discounter is runtime wiring to the health registry, re-injected by
	// SetDiscounter after restore.
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
// report beliefs are clamped to 0.999 so two certain-but-contradictory
// sources discount each other instead of producing total conflict.
func NewDiagnosticFuser(groups Groups) (*DiagnosticFuser, error) {
	if err := groups.Validate(); err != nil {
		return nil, err
	}
	df := &DiagnosticFuser{
		members:   make(map[string]memberRef),
		states:    make(map[string][]*groupState),
		maxBelief: 0.999,
	}
	for g, name := range slices.Sorted(maps.Keys(groups)) {
		hyps := append(slices.Clone(groups[name]), otherHypothesis)
		frame, err := dempster.NewFrame(hyps...)
		if err != nil {
			return nil, err
		}
		members := hyps[:len(hyps)-1]
		byName := make([]int, len(members))
		for pos, c := range members {
			byName[pos] = pos
			df.members[c] = memberRef{g, pos}
		}
		slices.SortFunc(byName, func(a, b int) int { return cmp.Compare(members[a], members[b]) })
		df.groups = append(df.groups, groupFrame{name: name, members: members, frame: frame, byName: byName})
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
// mass and the next one, the report's evidence in a fold or a source's
// discounted mass in a read, and the discount factors. Reads run
// concurrently under the read lock, so each takes its own from scratchPool
// rather than sharing one the fuser keeps.
type foldScratch struct {
	fused, next, disc dempster.Mass
	factors           []float64
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

// AddReport fuses one diagnostic report from an anonymous source — see
// AddReportFrom — and returns the updated fused belief in the condition.
// Anonymous evidence is never discounted.
func (df *DiagnosticFuser) AddReport(component, condition string, belief float64) (float64, error) {
	cs, err := df.AddReportFrom(component, condition, "", time.Time{}, belief)
	return cs.Belief, err
}

// AddReportFrom fuses one diagnostic report: the named knowledge source
// asserting the condition on the component with the given belief, sensed at
// the given time. It returns the condition's state as the combination that
// folded the report in read it, so a caller posting the conclusion need not
// ask again. Per §5.6, the update also reweights every other failure in
// the condition's logical group and the group's unknown mass — all readable
// afterwards via Belief/Unknown/GroupState. When a Discounter is installed
// the source's accumulated evidence is Shafer-discounted by its current
// reliability on every read, so beliefs decay toward ignorance as the
// source goes stale and recover when fresh reports resume.
func (df *DiagnosticFuser) AddReportFrom(component, condition, source string, at time.Time, belief float64) (ConditionState, error) {
	if component == "" {
		return ConditionState{}, fmt.Errorf("fusion: empty component")
	}
	if !(belief >= 0 && belief <= 1) { // NaN too
		return ConditionState{}, fmt.Errorf("fusion: belief %g outside [0,1]", belief)
	}
	ref, err := df.member(condition)
	if err != nil {
		return ConditionState{}, err
	}
	if belief > df.maxBelief {
		belief = df.maxBelief
	}
	g, hyp := &df.groups[ref.group], dempster.Singleton(ref.pos)
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	df.mu.Lock()
	defer df.mu.Unlock()
	blocks := df.states[component]
	if blocks == nil {
		blocks = make([]*groupState, len(df.groups))
		df.states[component] = blocks
	}
	st := blocks[ref.group]
	if st == nil {
		st = newGroupState(len(g.members))
		blocks[ref.group] = st
	}
	if err := sc.disc.SetSimpleSupport(g.frame, hyp, belief); err != nil {
		return ConditionState{}, err
	}
	i, ok := st.source(source)
	if !ok {
		st.sources = slices.Insert(st.sources, i, sourceEvidence{id: source})
		st.sources[i].mass.SetVacuous(g.frame)
	}
	src := &st.sources[i]
	// Combine into spare storage and swap it in only on success: a refused
	// fold leaves the source's mass as it was.
	if _, err := dempster.CombineInto(&sc.next, &src.mass, &sc.disc); err != nil {
		return ConditionState{}, err
	}
	src.mass, sc.next = sc.next, src.mass
	src.conditions |= hyp
	if at.After(src.lastReport) {
		src.lastReport = at
	}
	if at.After(st.newest[ref.pos]) {
		st.newest[ref.pos] = at
	}
	st.reports[ref.pos]++
	df.totalFusedN++
	var out [1]ConditionState
	if _, err := df.readLocked(g, st, ref.pos, out[:], sc); err != nil {
		return ConditionState{}, err
	}
	return out[0], nil
}

// factorsLocked returns, aligned with the block's sources in sc's factor
// buffer, the discount factor each source's evidence carries right now (1
// for the anonymous source and for untimestamped evidence, which are never
// discounted). With no discounter installed nothing is discounted and the
// factors are nil. Callers hold df.mu (read or write).
func (df *DiagnosticFuser) factorsLocked(st *groupState, sc *foldScratch) []float64 {
	if df.discounter == nil {
		return nil
	}
	sc.factors = df.appendFactorsLocked(sc.factors[:0], st)
	return sc.factors
}

// appendFactorsLocked appends factorsLocked's factors to dst; the caller has
// checked that a discounter is installed. Callers hold df.mu (read or write).
func (df *DiagnosticFuser) appendFactorsLocked(dst []float64, st *groupState) []float64 {
	for i := range st.sources {
		src := &st.sources[i]
		alpha := 1.0
		if src.id != "" && !src.lastReport.IsZero() {
			alpha = df.discounter.Reliability(src.id, src.lastReport)
		}
		dst = append(dst, alpha)
	}
	return dst
}

// factorAt reads source i's factor out of factorsLocked's result.
func factorAt(factors []float64, i int) float64 {
	if factors == nil {
		return 1
	}
	return factors[i]
}

// fusedLocked combines every source's discounted evidence for one block, in
// source-id order, and returns the factors it discounted by: the fused mass
// is a pure function of the block's evidence and those factors, whatever the
// arrival interleaving across sources was. The fused mass lives in sc.
// Callers hold df.mu.
func (df *DiagnosticFuser) fusedLocked(g *groupFrame, st *groupState, sc *foldScratch) (fused *dempster.Mass, factors []float64, err error) {
	factors = df.factorsLocked(st, sc)
	fused, next := &sc.fused, &sc.next
	fused.SetVacuous(g.frame)
	for i := range st.sources {
		m := &st.sources[i].mass
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
// block's evidence once in sc, fills out[i] with the state of the member at
// position first+i, and returns the factors the combination discounted by,
// which are sc's. ConditionState, GroupState and RankedAll are projections
// of it. Callers hold df.mu.
func (df *DiagnosticFuser) readLocked(g *groupFrame, st *groupState, first int, out []ConditionState, sc *foldScratch) ([]float64, error) {
	fused, factors, err := df.fusedLocked(g, st, sc)
	if err != nil {
		return nil, err
	}
	unknown := fused.Unknown()
	for i := range out {
		pos := first + i
		hyp := dempster.Singleton(pos)
		out[i] = ConditionState{ConditionBelief: ConditionBelief{
			Condition: g.members[pos], Group: g.name, Reports: st.reports[pos], Reliability: 1,
		}, Unknown: unknown, UpdatedAt: st.newest[pos]}
		// Best reliability across the sources asserting the condition: a
		// conclusion is degraded only when no fresh source backs it.
		best, seen := 0.0, false
		for j := range st.sources {
			if !st.sources[j].conditions.Contains(hyp) {
				continue
			}
			if a := factorAt(factors, j); !seen || a > best {
				best, seen = a, true
			}
		}
		if seen {
			out[i].Reliability, out[i].Degraded = best, best < 1-1e-9
		}
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
	// UpdatedAt is the sensed-at time of the newest evidence folded into the
	// pair (zero before any timestamped report): what a shard stamps the
	// pair's summary with and an aggregator orders summaries by. It never goes
	// back: a late report changes the belief, not the time of the newest
	// evidence.
	UpdatedAt time.Time
}

// vacuousState is a pair's state before any report reaches its group.
func vacuousState(condition, group string) ConditionState {
	return ConditionState{ConditionBelief: ConditionBelief{
		Condition: condition, Group: group, Plausibility: 1, Reliability: 1,
	}, Unknown: 1}
}

// ConditionState returns the pair's fused belief, plausibility, group
// unknown, report count, and health-discount fields under a single lock
// acquisition and a single evidence combination: one member of the group
// read. Belief and Unknown each return one field of it.
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

// GroupState is the complete fused read of one (component, failure group)
// block — the unit one report can change (§5.3): evidence for any member
// reweights every other member and the group's unknown mass, and nothing
// outside the block.
type GroupState struct {
	// Members holds every member condition's state, reported or not, in the
	// group's registration order. Each carries the group's unknown mass.
	Members []ConditionState
	// Factors are the discount factors the read applied, one per
	// contributing source in sorted source-id order; nil while no discounter
	// is installed. Members is a pure function of the block's evidence and
	// these: until a report reaches the block, a later read differs exactly
	// when AppendGroupFactors does.
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
// source — and returns the extended slice. It appends nothing while no
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
	return df.appendFactorsLocked(dst, st)
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
