package pdme

import (
	"strings"
	"time"

	"repro/internal/fusion"
	"repro/internal/oosm"
	"repro/internal/proto"
)

// This file is the PDME's two OOSM classes. Each is typed: an object holds
// one Go value, and its properties are read out of that value when somebody
// asks for them, so posting a report or a conclusion copies nothing into the
// model.

// reportClass holds §7.2 failure prediction reports: each object holds the
// *proto.Report it was posted with.
var reportClass = oosm.Class{Name: ReportClass, Fields: map[string]oosm.Accessor{
	"dc_id":       oosm.String(func(r *proto.Report) string { return r.DCID }),
	"ks_id":       oosm.String(func(r *proto.Report) string { return r.KnowledgeSourceID }),
	"sensed":      oosm.String(func(r *proto.Report) string { return r.SensedObjectID }),
	"condition":   oosm.String(func(r *proto.Report) string { return r.MachineConditionID }),
	"severity":    oosm.Float(func(r *proto.Report) float64 { return r.Severity }),
	"belief":      oosm.Float(func(r *proto.Report) float64 { return r.Belief }),
	"explanation": oosm.String(func(r *proto.Report) string { return r.Explanation }),
	"recommend":   oosm.String(func(r *proto.Report) string { return r.Recommendations }),
	"timestamp":   oosm.Time(func(r *proto.Report) time.Time { return r.Timestamp }),
	"prognostics": oosm.String(func(r *proto.Report) string { return prognosticsText(r.Prognostics) }),
	// The guard-flagged channels, comma-joined.
	"suspect": oosm.String(func(r *proto.Report) string { return strings.Join(r.SuspectChannels, ",") }),
}}

// conclusionClass holds fused KF conclusions: each object holds a Conclusion.
var conclusionClass = oosm.Class{Name: ConclusionClass, Fields: map[string]oosm.Accessor{
	"component":    oosm.String(func(c *Conclusion) string { return c.component }),
	"condition":    oosm.String(func(c *Conclusion) string { return c.condition }),
	"group":        oosm.String(func(c *Conclusion) string { return c.group }),
	"belief":       oosm.Float(func(c *Conclusion) float64 { return c.belief }),
	"plausibility": oosm.Float(func(c *Conclusion) float64 { return c.plausibility }),
	"unknown":      oosm.Float(func(c *Conclusion) float64 { return c.unknown }),
	"prognostics":  oosm.String(func(c *Conclusion) string { return prognosticsText(c.prognostics) }),
	"updated_at":   oosm.Time(func(c *Conclusion) time.Time { return c.updatedAt }),
}}

// conclusionFold names the properties a fold rewrites (Conclusion.fold), in
// ascending order.
var conclusionFold = []string{"belief", "plausibility", "prognostics", "unknown", "updated_at"}

// Conclusion is the value a conclusion object holds: the pair it is about,
// written at its first post, and the state the pair's newest fold returned,
// which every later fold rewrites in place inside the model's Set.
type Conclusion struct {
	component, condition, group   string
	belief, plausibility, unknown float64
	// prognostics is the fused vector as fusion returned it: a copy of its
	// own that nothing writes into afterwards.
	prognostics proto.PrognosticVector
	updatedAt   time.Time
}

// Subject returns the pair the conclusion is about. It never changes, so it
// may be read from a conclusion event's value without the model's lock.
func (c *Conclusion) Subject() (component, condition string) { return c.component, c.condition }

// fold writes the state a fold returned: the properties conclusionFold names.
func (c *Conclusion) fold(cs fusion.ConditionState, vec proto.PrognosticVector) {
	c.belief, c.plausibility, c.unknown = cs.Belief, cs.Plausibility, cs.Unknown
	c.prognostics, c.updatedAt = vec, cs.UpdatedAt
}

// pair is what the PDME keeps per (component, condition): the name of its
// severity channel, and its conclusion object with the value that object
// holds (nil until the pair's first fold is posted).
type pair struct {
	severity   string
	id         oosm.ObjectID
	conclusion *Conclusion
}

// prognosticsText is the prognostics property: the vector as json.Marshal
// writes it ("null" for none). Every vector an accept hands the PDME has
// passed Validate, so it encodes.
func prognosticsText(v proto.PrognosticVector) string {
	var buf [256]byte
	b, _ := proto.AppendPrognosticsJSON(buf[:0], v)
	return string(b)
}
