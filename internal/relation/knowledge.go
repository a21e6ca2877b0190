package relation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/budget"
	"repro/internal/core"
)

// Knowledge is a hacker's partial information about one individual: for each
// attribute, the set of values the hacker considers possible (nil = no idea).
// It generalizes the belief-interval idea of the transaction setting from
// frequencies to attribute values.
type Knowledge struct {
	allowed []map[int]bool // per attribute; nil entry = unconstrained
}

// NewKnowledge returns an unconstrained ("Bob") knowledge record for a
// schema.
func NewKnowledge(s Schema) *Knowledge {
	return &Knowledge{allowed: make([]map[int]bool, len(s.Attrs))}
}

// Exact constrains the named attribute to exactly one value ("John is
// Chinese").
func (k *Knowledge) Exact(s Schema, attr, value string) error {
	ai, vi, err := s.ValueIndex(attr, value)
	if err != nil {
		return err
	}
	k.allowed[ai] = map[int]bool{vi: true}
	return nil
}

// OneOf constrains the named attribute to a set of values.
func (k *Knowledge) OneOf(s Schema, attr string, values ...string) error {
	if len(values) == 0 {
		return fmt.Errorf("relation: OneOf needs at least one value")
	}
	set := map[int]bool{}
	var ai int
	for _, v := range values {
		a, vi, err := s.ValueIndex(attr, v)
		if err != nil {
			return err
		}
		ai = a
		set[vi] = true
	}
	k.allowed[ai] = set
	return nil
}

// Range constrains an ordered attribute to the inclusive index range between
// two values ("Mary's age is between 30 and 35").
func (k *Knowledge) Range(s Schema, attr, lo, hi string) error {
	ai, li, err := s.ValueIndex(attr, lo)
	if err != nil {
		return err
	}
	_, hiIdx, err := s.ValueIndex(attr, hi)
	if err != nil {
		return err
	}
	if !s.Attrs[ai].Ordered {
		return fmt.Errorf("relation: attribute %q is not ordered", attr)
	}
	if li > hiIdx {
		li, hiIdx = hiIdx, li
	}
	set := map[int]bool{}
	for v := li; v <= hiIdx; v++ {
		set[v] = true
	}
	k.allowed[ai] = set
	return nil
}

// Admits reports whether a record row is consistent with the knowledge.
func (k *Knowledge) Admits(row func(attr int) int) bool {
	for a, set := range k.allowed {
		if set != nil && !set[row(a)] {
			return false
		}
	}
	return true
}

// Compliant reports whether the knowledge admits the individual's true
// record — the relational analogue of belief-function compliancy.
func (k *Knowledge) Compliant(r *Relation, individual int) bool {
	return k.Admits(func(a int) int { return r.Value(individual, a) })
}

// PartialInfo maps individual ids to the hacker's knowledge about them;
// individuals not in the map are unknowns (complete bipartite rows, as for
// Bob in the paper's example).
type PartialInfo map[int]*Knowledge

// BuildGraph sets up the Section 8.1 bipartite graph: an edge connects
// anonymized record w′ to individual x whenever w's released attribute
// values are consistent with the hacker's knowledge about x.
//
//lint:allow ctxbudget n² consistency checks bounded by the explicit graph it allocates anyway; downstream estimators are budgeted
func BuildGraph(r *Relation, info PartialInfo) *bipartite.Explicit {
	n := r.Records()
	adj := make([][]int, n)
	for w := 0; w < n; w++ {
		for x := 0; x < n; x++ {
			k := info[x]
			if k == nil || k.Admits(func(a int) int { return r.Value(w, a) }) {
				adj[w] = append(adj[w], x)
			}
		}
	}
	return &bipartite.Explicit{N: n, Adj: adj}
}

// AssessDisclosureCtx runs the O-estimate (with propagation) on the
// knowledge-induced graph and reports the expected number of re-identified
// individuals. For graphs small enough (n ≤ bipartite.MaxExactN) exact can
// be requested, which adds the permanent-based expectation. The O-estimate
// always completes; the optional exact value is the expensive part and
// degrades gracefully — when its budget runs out the report is returned
// without it (HasExact false, Degraded set) instead of failing, since the
// O-estimate already answers the question.
func AssessDisclosureCtx(ctx context.Context, r *Relation, info PartialInfo, exact bool) (*DisclosureReport, error) {
	g := BuildGraph(r, info)
	rep := &DisclosureReport{Individuals: r.Records()}
	oe, err := core.OEstimateExplicitCtx(ctx, g, core.OEOptions{Propagate: true})
	if errors.Is(err, bipartite.ErrInfeasible) {
		rep.Infeasible = true
		oe, err = core.OEstimateExplicitCtx(ctx, g, core.OEOptions{})
	}
	if err != nil {
		return nil, err
	}
	rep.OEstimate = oe.Value
	rep.Forced = oe.Forced
	oe.Crackable.ForEach(func(x int) {
		if oe.Outdeg[x] == 1 {
			rep.PinnedDown = append(rep.PinnedDown, x)
		}
	})
	if exact && !rep.Infeasible {
		v, err := core.ExactExpectedCracksCtx(ctx, g)
		switch {
		case err == nil:
			rep.Exact = v
			rep.HasExact = true
		case budget.Degradable(err):
			rep.Degraded = true
			rep.DegradedReason = err.Error()
		default:
			return nil, err
		}
	}
	return rep, nil
}

// DisclosureReport summarizes a relational disclosure assessment.
type DisclosureReport struct {
	Individuals int
	OEstimate   float64
	Forced      int
	PinnedDown  []int   // individuals identified with certainty
	Exact       float64 // permanent-based expectation (when requested)
	HasExact    bool
	Infeasible  bool // knowledge admits no global assignment; per-item estimate
	// Degraded marks that the exact tier was requested but its work budget
	// ran out; the O-estimate above still answers.
	Degraded       bool
	DegradedReason string
}

// RandomRelation generates a population for tests and examples: each
// attribute value is drawn independently from a Zipf-ish distribution over
// the attribute's vocabulary.
//
//lint:allow ctxbudget test-data generator, linear in the n·|attrs| table it fills
func RandomRelation(schema Schema, n int, rng *rand.Rand) (*Relation, error) {
	rows := make([][]int, n)
	names := make([]string, n)
	for i := range rows {
		row := make([]int, len(schema.Attrs))
		for a, attr := range schema.Attrs {
			// Zipf-ish: value v with weight 1/(v+1).
			total := 0.0
			for v := range attr.Values {
				total += 1 / float64(v+1)
			}
			u := rng.Float64() * total
			for v := range attr.Values {
				u -= 1 / float64(v+1)
				if u <= 0 {
					row[a] = v
					break
				}
			}
		}
		rows[i] = row
		names[i] = fmt.Sprintf("person-%03d", i)
	}
	return New(schema, names, rows)
}
