package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/chiller"
	"repro/internal/fusion"
	"repro/internal/oosm"
	"repro/internal/proto"
)

// virtualEpoch is when the paper's PDME first ran; every generated
// timestamp counts from it.
var virtualEpoch = time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)

// chillerGroups returns the §5.3 logical failure groups of the chiller's
// twelve failure modes, as the deployments configure them.
func chillerGroups() fusion.Groups {
	g := fusion.Groups{}
	for name, faults := range chiller.FaultGroups() {
		for _, f := range faults {
			g[name] = append(g[name], f.String())
		}
	}
	return g
}

// allConditions lists the twelve machine conditions in a fixed order.
func allConditions() []string {
	out := make([]string, 0, chiller.NumFaults)
	for _, f := range chiller.AllFaults() {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}

// registerMachines models n chillers in the ship model and returns their
// object ids as the reports will name them.
func registerMachines(model *oosm.Model, n int) ([]string, error) {
	if err := model.RegisterClass(oosm.Class{
		Name:  "chiller",
		Props: map[string]oosm.PropType{"name": oosm.PropString},
	}); err != nil {
		return nil, fmt.Errorf("register chiller class: %w", err)
	}
	ids := make([]string, n)
	for i := range ids {
		id, err := model.Create("chiller", map[string]any{"name": fmt.Sprintf("A/C Chiller %d", i+1)})
		if err != nil {
			return nil, fmt.Errorf("model chiller %d: %w", i+1, err)
		}
		ids[i] = id.String()
	}
	return ids, nil
}

var knowledgeSources = []string{"ks/dli", "ks/fuzzy", "ks/sbfr", "ks/wnn"}

// genReport draws one valid §7.2 report about machine from dcid.
func genReport(rng *rand.Rand, dcid, machine string, conditions []string, at time.Time) *proto.Report {
	sev := 0.2 + 0.7*rng.Float64()
	p1 := 0.1 + 0.4*rng.Float64()
	h1 := float64(3+rng.Intn(28)) * 86400
	return &proto.Report{
		DCID:               dcid,
		KnowledgeSourceID:  knowledgeSources[rng.Intn(len(knowledgeSources))],
		SensedObjectID:     machine,
		MachineConditionID: conditions[rng.Intn(len(conditions))],
		Severity:           sev,
		Belief:             0.3 + 0.6*rng.Float64(),
		Explanation:        fmt.Sprintf("synthetic finding, severity %.2f, ticket %06d", sev, rng.Intn(1e6)),
		Timestamp:          at,
		Prognostics: proto.PrognosticVector{
			{Probability: p1, HorizonSeconds: h1},
			{Probability: p1 + (0.95-p1)*rng.Float64(), HorizonSeconds: h1 * (2 + 2*rng.Float64())},
		},
	}
}

// genReports draws n reports from dcid over its machines, one virtual
// second apart starting at t0.
func genReports(rng *rand.Rand, n int, dcid string, machines, conditions []string, t0 time.Time) []*proto.Report {
	out := make([]*proto.Report, n)
	for i := range out {
		out[i] = genReport(rng, dcid, machines[rng.Intn(len(machines))], conditions,
			t0.Add(time.Duration(i)*time.Second))
	}
	return out
}
