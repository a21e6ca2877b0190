package relation

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// paperSchema is the Section 8.1 example: age, ethnicity, car-model.
func paperSchema() Schema {
	return Schema{Attrs: []Attribute{
		{Name: "age", Values: []string{"20-25", "25-30", "30-35", "35-40"}, Ordered: true},
		{Name: "ethnicity", Values: []string{"Chinese", "Indian", "German"}},
		{Name: "car", Values: []string{"Toyota", "Honda", "BMW"}},
	}}
}

// paperExample builds a small population containing John, Mary and Bob.
func paperExample(t testing.TB) *Relation {
	t.Helper()
	s := paperSchema()
	rows := [][]int{
		{0, 0, 0}, // John: 20-25, Chinese, Toyota
		{2, 1, 1}, // Mary: 30-35, Indian, Honda
		{3, 2, 2}, // Bob: 35-40, German, BMW
		{1, 0, 0}, // another Chinese Toyota owner
		{2, 2, 0}, // 30-35, German, Toyota
		{0, 1, 2}, // 20-25, Indian, BMW
	}
	r, err := New(s, []string{"John", "Mary", "Bob", "p3", "p4", "p5"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	s := paperSchema()
	if _, err := New(Schema{}, nil, [][]int{{0}}); err == nil {
		t.Error("empty schema: want error")
	}
	if _, err := New(s, nil, nil); err == nil {
		t.Error("no records: want error")
	}
	if _, err := New(s, []string{"a"}, [][]int{{0, 0, 0}, {1, 1, 1}}); err == nil {
		t.Error("name count mismatch: want error")
	}
	if _, err := New(s, nil, [][]int{{0, 0}}); err == nil {
		t.Error("short row: want error")
	}
	if _, err := New(s, nil, [][]int{{0, 0, 9}}); err == nil {
		t.Error("out-of-range value: want error")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := paperSchema()
	if s.AttrIndex("car") != 2 || s.AttrIndex("nope") != -1 {
		t.Error("AttrIndex wrong")
	}
	ai, vi, err := s.ValueIndex("ethnicity", "Indian")
	if err != nil || ai != 1 || vi != 1 {
		t.Errorf("ValueIndex = (%d,%d,%v)", ai, vi, err)
	}
	if _, _, err := s.ValueIndex("nope", "x"); err == nil {
		t.Error("unknown attribute: want error")
	}
	if _, _, err := s.ValueIndex("car", "Lada"); err == nil {
		t.Error("unknown value: want error")
	}
}

func TestTupleGroupsAndFullKnowledge(t *testing.T) {
	r := paperExample(t)
	groups := r.TupleGroups()
	if len(groups) != 6 {
		t.Fatalf("groups = %d, want 6 (all tuples distinct)", len(groups))
	}
	if r.ExpectedCracksFullKnowledge() != 6 {
		t.Errorf("full knowledge E(X) = %v, want 6", r.ExpectedCracksFullKnowledge())
	}
	if r.MinAnonymitySet() != 1 {
		t.Errorf("min anonymity set = %d, want 1", r.MinAnonymitySet())
	}
	// Duplicate tuples merge.
	s := paperSchema()
	r2, err := New(s, nil, [][]int{{0, 0, 0}, {0, 0, 0}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.TupleGroups()) != 2 || r2.MinAnonymitySet() != 1 {
		t.Errorf("dup groups = %d, k = %d", len(r2.TupleGroups()), r2.MinAnonymitySet())
	}
}

func TestKnowledgeConstraints(t *testing.T) {
	s := paperSchema()
	r := paperExample(t)

	john := NewKnowledge(s)
	if err := john.Exact(s, "ethnicity", "Chinese"); err != nil {
		t.Fatal(err)
	}
	if err := john.Exact(s, "car", "Toyota"); err != nil {
		t.Fatal(err)
	}
	if !john.Compliant(r, 0) {
		t.Error("John's knowledge should admit John's record")
	}
	if john.Compliant(r, 1) {
		t.Error("John's knowledge should exclude Mary's record")
	}

	mary := NewKnowledge(s)
	if err := mary.Range(s, "age", "30-35", "35-40"); err != nil {
		t.Fatal(err)
	}
	if !mary.Compliant(r, 1) || mary.Compliant(r, 0) {
		t.Error("Mary's age range should admit Mary, exclude John")
	}

	if err := mary.Range(s, "ethnicity", "Chinese", "Indian"); err == nil {
		t.Error("Range on unordered attribute: want error")
	}
	k := NewKnowledge(s)
	if err := k.OneOf(s, "car", "Toyota", "Honda"); err != nil {
		t.Fatal(err)
	}
	if !k.Compliant(r, 0) || k.Compliant(r, 2) {
		t.Error("OneOf admits wrong records")
	}
	if err := k.OneOf(s, "car"); err == nil {
		t.Error("empty OneOf: want error")
	}
	if err := k.Exact(s, "nope", "x"); err == nil {
		t.Error("Exact on unknown attribute: want error")
	}
}

func TestBuildGraphPaperExample(t *testing.T) {
	s := paperSchema()
	r := paperExample(t)
	john := NewKnowledge(s)
	_ = john.Exact(s, "ethnicity", "Chinese")
	_ = john.Exact(s, "car", "Toyota")
	mary := NewKnowledge(s)
	_ = mary.Range(s, "age", "30-35", "35-40")
	info := PartialInfo{0: john, 1: mary} // Bob (2) and the rest: no info

	g := BuildGraph(r, info)
	// John's column: only the two Chinese+Toyota records (0 and 3).
	for w := 0; w < 6; w++ {
		want := w == 0 || w == 3
		if got := g.HasEdge(w, 0); got != want {
			t.Errorf("edge (%d, John) = %v, want %v", w, got, want)
		}
	}
	// Mary's column: the three records with age in 30-40 (1, 2, 4).
	for w := 0; w < 6; w++ {
		want := w == 1 || w == 2 || w == 4
		if got := g.HasEdge(w, 1); got != want {
			t.Errorf("edge (%d, Mary) = %v, want %v", w, got, want)
		}
	}
	// Bob's column: everything.
	for w := 0; w < 6; w++ {
		if !g.HasEdge(w, 2) {
			t.Errorf("edge (%d, Bob) missing", w)
		}
	}
}

func TestAssessDisclosurePaperExample(t *testing.T) {
	s := paperSchema()
	r := paperExample(t)
	john := NewKnowledge(s)
	_ = john.Exact(s, "ethnicity", "Chinese")
	_ = john.Exact(s, "car", "Toyota")
	mary := NewKnowledge(s)
	_ = mary.Range(s, "age", "30-35", "35-40")
	info := PartialInfo{0: john, 1: mary}

	rep, err := AssessDisclosureCtx(context.Background(), r, info, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infeasible {
		t.Fatal("example should be feasible")
	}
	if !rep.HasExact {
		t.Fatal("exact expectation requested but missing")
	}
	// Validate the O-estimate against the exact value within a loose band,
	// and both against first principles: John is one of two candidates.
	if rep.OEstimate < 0.5 || rep.OEstimate > float64(r.Records()) {
		t.Errorf("OEstimate = %v out of sane range", rep.OEstimate)
	}
	if math.Abs(rep.OEstimate-rep.Exact) > 1.0 {
		t.Errorf("OEstimate %v far from exact %v", rep.OEstimate, rep.Exact)
	}
	// With no information at all, Lemma 1: exactly 1 crack expected.
	none, err := AssessDisclosureCtx(context.Background(), r, PartialInfo{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(none.Exact-1) > 1e-9 {
		t.Errorf("ignorant exact = %v, want 1 (Lemma 1)", none.Exact)
	}
	if math.Abs(none.OEstimate-1) > 1e-9 {
		t.Errorf("ignorant OE = %v, want 1", none.OEstimate)
	}
}

func TestAssessDisclosureInfeasibleKnowledge(t *testing.T) {
	s := paperSchema()
	r := paperExample(t)
	wrong := NewKnowledge(s)
	// Claim John drives a BMW and is German: no record is Chinese+Toyota...
	// actually records 2 and 5 are BMWs; but claim an empty combination:
	_ = wrong.Exact(s, "ethnicity", "Chinese")
	_ = wrong.Exact(s, "car", "BMW")
	info := PartialInfo{0: wrong}
	rep, err := AssessDisclosureCtx(context.Background(), r, info, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Infeasible {
		t.Error("empty candidate set should be infeasible")
	}
	if rep.OEstimate != 0 && !math.IsNaN(rep.OEstimate) {
		// John cannot be cracked; others contribute 1/n each at most.
		if rep.OEstimate > float64(r.Records()) {
			t.Errorf("fallback OE = %v out of range", rep.OEstimate)
		}
	}
}

func TestExplicitOEstimateAgainstCompactOnRelations(t *testing.T) {
	// Cross-check the explicit-graph O-estimate against exact values on
	// random populations with random exact-knowledge subsets.
	rng := rand.New(rand.NewSource(9))
	s := paperSchema()
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(6)
		r, err := RandomRelation(s, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		info := PartialInfo{}
		for x := 0; x < n; x++ {
			if rng.Intn(2) == 0 {
				k := NewKnowledge(s)
				attr := s.Attrs[rng.Intn(len(s.Attrs))]
				// Truthful exact knowledge about one attribute.
				v := attr.Values[r.Value(x, s.AttrIndex(attr.Name))]
				if err := k.Exact(s, attr.Name, v); err != nil {
					t.Fatal(err)
				}
				info[x] = k
			}
		}
		g := BuildGraph(r, info)
		oe, err := core.OEstimateExplicitCtx(context.Background(), g, core.OEOptions{Propagate: true})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := core.ExactExpectedCracksCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if oe.Value < exact-2 || oe.Value > exact+2 {
			t.Errorf("trial %d: OE %v vs exact %v drifted", trial, oe.Value, exact)
		}
	}
}

func TestRandomRelationShape(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r, err := RandomRelation(paperSchema(), 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.Records() != 50 || len(r.Names) != 50 {
		t.Fatalf("shape %d/%d", r.Records(), len(r.Names))
	}
	for i := 0; i < 50; i++ {
		for a := range r.Schema.Attrs {
			v := r.Value(i, a)
			if v < 0 || v >= len(r.Schema.Attrs[a].Values) {
				t.Fatalf("record %d attr %d value %d out of range", i, a, v)
			}
		}
	}
}
