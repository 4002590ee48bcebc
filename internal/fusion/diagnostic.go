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

// sourceEvidence is the running evidence one knowledge source has
// contributed to a (component, group) pair. Keeping sources separate (and
// combining at query time) lets each source's whole contribution be
// discounted by its current reliability: Dempster combination is
// commutative and associative, so splitting per source changes nothing
// when every α is 1.
type sourceEvidence struct {
	mass *dempster.Mass
	// lastReport is the latest sensed-at timestamp this source asserted
	// (zero for untimestamped reports — never discounted).
	lastReport time.Time
	// conditions is the set of conditions this source has reported.
	conditions map[string]struct{}
}

// groupState is the running belief state of one (component, group) pair.
type groupState struct {
	frame *dempster.Frame
	// sources holds per-knowledge-source evidence, keyed by source id
	// ("" for reports with no source attribution).
	sources map[string]*sourceEvidence
	// ids are the keys of sources, sorted: the order the sources combine in.
	ids []string
	// reports counts per-condition report arrivals.
	reports map[string]int
	// newest is each condition's UpdatedAt: the sensed-at time of the newest
	// evidence folded in — a max, so a late report never moves it back.
	newest map[string]time.Time
}

// DiagnosticFuser maintains fused beliefs per component, partitioned into
// logical failure groups. Safe for concurrent use.
type DiagnosticFuser struct {
	mu sync.RWMutex
	// groups is not checkpointed: failure-group topology is construction
	// config, and Restore refuses snapshots that disagree with it.
	groups Groups
	// groupOf is derived from groups at construction; rebuilding it from a
	// snapshot would desync it from groups.
	groupOf map[string]string
	states  map[string]map[string]*groupState // component -> group -> state
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
		groups:    groups,
		groupOf:   make(map[string]string),
		states:    make(map[string]map[string]*groupState),
		maxBelief: 0.999,
	}
	//lint:allow maporder builds a reverse-lookup map from validated-unique conditions; insertion order cannot affect contents
	for name, conds := range groups {
		for _, c := range conds {
			df.groupOf[c] = name
		}
	}
	return df, nil
}

// GroupOf returns the logical group of a condition.
func (df *DiagnosticFuser) GroupOf(condition string) (string, error) {
	g, ok := df.groupOf[condition]
	if !ok {
		return "", fmt.Errorf("fusion: condition %q not in any failure group", condition)
	}
	return g, nil
}

// newGroupFrame builds a group's frame of discernment: its configured
// conditions plus the reserved unknown hypothesis.
func newGroupFrame(groups Groups, group string) (*dempster.Frame, error) {
	return dempster.NewFrame(append(append([]string(nil), groups[group]...), otherHypothesis)...)
}

func newGroupState(frame *dempster.Frame) *groupState {
	return &groupState{
		frame:   frame,
		sources: make(map[string]*sourceEvidence),
		reports: make(map[string]int),
		newest:  make(map[string]time.Time),
	}
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

func (df *DiagnosticFuser) state(component, group string) (*groupState, error) {
	byGroup, ok := df.states[component]
	if !ok {
		byGroup = make(map[string]*groupState)
		df.states[component] = byGroup
	}
	st, ok := byGroup[group]
	if !ok {
		frame, err := newGroupFrame(df.groups, group)
		if err != nil {
			return nil, err
		}
		st = newGroupState(frame)
		byGroup[group] = st
	}
	return st, nil
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
// afterwards via Belief/Unknown/Ranked. When a Discounter is installed the
// source's accumulated evidence is Shafer-discounted by its current
// reliability on every read, so beliefs decay toward ignorance as the
// source goes stale and recover when fresh reports resume.
func (df *DiagnosticFuser) AddReportFrom(component, condition, source string, at time.Time, belief float64) (ConditionState, error) {
	if component == "" {
		return ConditionState{}, fmt.Errorf("fusion: empty component")
	}
	if !(belief >= 0 && belief <= 1) { // NaN too
		return ConditionState{}, fmt.Errorf("fusion: belief %g outside [0,1]", belief)
	}
	group, err := df.GroupOf(condition)
	if err != nil {
		return ConditionState{}, err
	}
	if belief > df.maxBelief {
		belief = df.maxBelief
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	df.mu.Lock()
	defer df.mu.Unlock()
	st, err := df.state(component, group)
	if err != nil {
		return ConditionState{}, err
	}
	hyp, err := st.frame.Hypothesis(condition)
	if err != nil {
		return ConditionState{}, err
	}
	if err := sc.disc.SetSimpleSupport(st.frame, hyp, belief); err != nil {
		return ConditionState{}, err
	}
	src, ok := st.sources[source]
	if !ok {
		src = &sourceEvidence{
			mass:       dempster.VacuousMass(st.frame),
			conditions: make(map[string]struct{}),
		}
		st.sources[source] = src
		i, _ := slices.BinarySearch(st.ids, source)
		st.ids = slices.Insert(st.ids, i, source)
	}
	// Combine into spare storage and swap it in only on success: a refused
	// fold leaves the source's mass as it was.
	if _, err := dempster.CombineInto(&sc.next, src.mass, &sc.disc); err != nil {
		return ConditionState{}, err
	}
	*src.mass, sc.next = sc.next, *src.mass
	src.conditions[condition] = struct{}{}
	if at.After(src.lastReport) {
		src.lastReport = at
	}
	if at.After(st.newest[condition]) {
		st.newest[condition] = at
	}
	st.reports[condition]++
	df.totalFusedN++
	member, out := [1]string{condition}, [1]ConditionState{}
	if _, err := df.readLocked(group, st, member[:], out[:], sc); err != nil {
		return ConditionState{}, err
	}
	return out[0], nil
}

// factorsLocked returns the group's source ids in the sorted order they
// combine in and, aligned with them in sc's factor buffer, the discount
// factor each source's evidence carries right now (1 for the anonymous
// source and for untimestamped evidence, which are never discounted). With
// no discounter installed nothing is discounted and the factors are nil.
// Both slices are borrowed: the ids are the block's, the factors sc's.
// Callers hold df.mu (read or write).
func (df *DiagnosticFuser) factorsLocked(st *groupState, sc *foldScratch) (names []string, factors []float64) {
	names = st.ids
	if df.discounter == nil {
		return names, nil
	}
	factors = slices.Grow(sc.factors[:0], len(names))[:len(names)]
	sc.factors = factors
	for i, name := range names {
		factors[i] = 1
		if src := st.sources[name]; name != "" && !src.lastReport.IsZero() {
			factors[i] = df.discounter.Reliability(name, src.lastReport)
		}
	}
	return names, factors
}

// factorAt reads source i's factor out of factorsLocked's result.
func factorAt(factors []float64, i int) float64 {
	if factors == nil {
		return 1
	}
	return factors[i]
}

// fusedLocked combines every source's discounted evidence for one group
// state, in factorsLocked's order, and returns that order and the factors it
// discounted by: the fused mass is a pure function of the group's evidence
// and those factors, whatever the arrival interleaving across sources was.
// The fused mass lives in sc. Callers hold df.mu.
func (df *DiagnosticFuser) fusedLocked(st *groupState, sc *foldScratch) (fused *dempster.Mass, names []string, factors []float64, err error) {
	names, factors = df.factorsLocked(st, sc)
	fused, next := &sc.fused, &sc.next
	fused.SetVacuous(st.frame)
	for i, name := range names {
		m := st.sources[name].mass
		if alpha := factorAt(factors, i); alpha < 1 {
			if err = dempster.DiscountInto(&sc.disc, m, alpha); err != nil {
				return nil, nil, nil, err
			}
			m = &sc.disc
		}
		if _, err = dempster.CombineInto(next, fused, m); err != nil {
			return nil, nil, nil, err
		}
		fused, next = next, fused
	}
	return fused, names, factors, nil
}

// readLocked is the one fused read of a group state: it combines the group's
// evidence once in sc, fills out[i] with the state of members[i], and
// returns the factors the combination discounted by, which are sc's.
// ConditionState, GroupState and Ranked are projections of it. Callers hold
// df.mu.
func (df *DiagnosticFuser) readLocked(group string, st *groupState, members []string, out []ConditionState, sc *foldScratch) ([]float64, error) {
	fused, names, factors, err := df.fusedLocked(st, sc)
	if err != nil {
		return nil, err
	}
	var hypBuf [8]dempster.Set
	hyps := hypBuf[:0]
	unknown := fused.Unknown()
	for i, cond := range members {
		hyp, err := st.frame.Hypothesis(cond)
		if err != nil {
			return nil, err
		}
		hyps = append(hyps, hyp)
		out[i] = ConditionState{ConditionBelief: ConditionBelief{
			Condition: cond, Group: group, Reports: st.reports[cond], Reliability: 1,
		}, Unknown: unknown, UpdatedAt: st.newest[cond]}
		// Best reliability across the sources asserting the condition: a
		// conclusion is degraded only when no fresh source backs it.
		best, seen := 0.0, false
		for j, name := range names {
			if _, ok := st.sources[name].conditions[cond]; !ok {
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
		for i, hyp := range hyps {
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

// Plausibility returns the fused plausibility of a condition (1 before any
// report: everything is fully plausible).
func (df *DiagnosticFuser) Plausibility(component, condition string) (float64, error) {
	cs, err := df.ConditionState(component, condition)
	return cs.Plausibility, err
}

// Unknown returns the §5.3 "likelihood of unknown possibilities" for a
// component's failure group — 1.0 before any report arrives.
func (df *DiagnosticFuser) Unknown(component, group string) (float64, error) {
	conds, ok := df.groups[group]
	if !ok {
		return 0, fmt.Errorf("fusion: unknown group %q", group)
	}
	// The unknown mass belongs to the group; any member reads it.
	cs, err := df.ConditionState(component, conds[0])
	return cs.Unknown, err
}

// Ranked returns every condition reported against the component, ranked by
// fused belief descending — the prioritized list the PDME shows maintenance
// personnel.
func (df *DiagnosticFuser) Ranked(component string) []ConditionBelief {
	df.mu.RLock()
	defer df.mu.RUnlock()
	return df.rankedLocked(component)
}

// RankedAll returns Ranked for every component with at least one fused
// report, keyed by component, computed under a single lock acquisition so
// the result is one consistent snapshot: no report fused concurrently with
// the call can appear for one component and be missing for another.
func (df *DiagnosticFuser) RankedAll() map[string][]ConditionBelief {
	df.mu.RLock()
	defer df.mu.RUnlock()
	out := make(map[string][]ConditionBelief, len(df.states))
	//lint:allow maporder each component's ranking is computed independently into a map; order cannot affect any entry
	for component := range df.states {
		out[component] = df.rankedLocked(component)
	}
	return out
}

// rankedLocked computes Ranked for one component: the reported members of
// each of its groups' reads, sorted. A group whose evidence cannot be
// combined contributes no rows. Callers hold df.mu.
func (df *DiagnosticFuser) rankedLocked(component string) []ConditionBelief {
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	var out []ConditionBelief
	//lint:allow maporder rows are fully sorted by (belief, condition) before return and conditions are unique per component
	for group, st := range df.states[component] {
		members := df.groups[group]
		states := make([]ConditionState, len(members))
		if _, err := df.readLocked(group, st, members, states, sc); err != nil {
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
// read. Belief, Plausibility and Unknown each return one field of it.
func (df *DiagnosticFuser) ConditionState(component, condition string) (ConditionState, error) {
	group, err := df.GroupOf(condition)
	if err != nil {
		return ConditionState{}, err
	}
	df.mu.RLock()
	defer df.mu.RUnlock()
	st := df.states[component][group]
	if st == nil {
		return vacuousState(condition, group), nil // no reports yet for the pair's group
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	member, out := [1]string{condition}, [1]ConditionState{}
	if _, err := df.readLocked(group, st, member[:], out[:], sc); err != nil {
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
	// group's registration order (GroupMembers). Each carries the group's
	// unknown mass.
	Members []ConditionState
	// Factors are the discount factors the read applied, one per
	// contributing source in sorted source-id order; nil while no discounter
	// is installed. Members is a pure function of the block's evidence and
	// these: until a report reaches the block, a later read differs exactly
	// when GroupFactors does.
	Factors []float64
}

// GroupState fuses one (component, group) block once and returns every
// member's state from that one combination, under a single lock
// acquisition. A block with no evidence reads vacuous.
func (df *DiagnosticFuser) GroupState(component, group string) (GroupState, error) {
	members, ok := df.groups[group]
	if !ok {
		return GroupState{}, fmt.Errorf("fusion: unknown group %q", group)
	}
	gs := GroupState{Members: make([]ConditionState, len(members))}
	df.mu.RLock()
	defer df.mu.RUnlock()
	st := df.states[component][group]
	if st == nil {
		for i, cond := range members {
			gs.Members[i] = vacuousState(cond, group)
		}
		return gs, nil
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	factors, err := df.readLocked(group, st, members, gs.Members, sc)
	if err != nil {
		return GroupState{}, err
	}
	gs.Factors = slices.Clone(factors)
	return gs, nil
}

// GroupFactors returns what GroupState's Factors would be right now without
// combining any evidence: one Reliability call per discounted source. Nil
// while no discounter is installed or the block holds no evidence.
func (df *DiagnosticFuser) GroupFactors(component, group string) []float64 {
	df.mu.RLock()
	defer df.mu.RUnlock()
	st := df.states[component][group]
	if st == nil || df.discounter == nil {
		return nil
	}
	var sc foldScratch // the factors it fills are the caller's to keep
	_, factors := df.factorsLocked(st, &sc)
	return factors
}

// Blocks returns every (component, failure group) pair that holds evidence,
// sorted by component then group.
func (df *DiagnosticFuser) Blocks() [][2]string {
	df.mu.RLock()
	defer df.mu.RUnlock()
	var out [][2]string
	for _, component := range slices.Sorted(maps.Keys(df.states)) {
		for _, group := range slices.Sorted(maps.Keys(df.states[component])) {
			out = append(out, [2]string{component, group})
		}
	}
	return out
}

// Components returns every component with at least one fused report.
func (df *DiagnosticFuser) Components() []string {
	df.mu.RLock()
	defer df.mu.RUnlock()
	return slices.Sorted(maps.Keys(df.states))
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
	ev, err := dempster.SimpleSupport(nf.frame, hyp, belief)
	if err != nil {
		return 0, err
	}
	combined, _, err := dempster.Combine(m, ev)
	if err != nil {
		return 0, err
	}
	nf.state[component] = combined
	return combined.Belief(hyp), nil
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
