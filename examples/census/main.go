// Census demonstrates the paper's Section 8.1 claim that the whole analysis
// generalizes beyond frequent-set mining: releasing an anonymized *relation*
// — here (age, ethnicity, car-model) records with names replaced by numbers,
// the task being classification — against a hacker holding per-individual
// partial knowledge. The paper's own example is reproduced literally:
//
//	"if the hacker somehow knows that John is Chinese owning a Toyota, then
//	 edges can be set up between (x′, John) for all anonymized items x′ with
//	 ethnicity being Chinese and car-model being Toyota. Similarly, if the
//	 hacker somehow knows that Mary's age is between 30 and 35 ... And if the
//	 hacker has no knowledge of Bob, Bob is connected to every anonymized
//	 item in the graph. Once the graph is set up, we can re-apply all the
//	 lemmas above."
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/relation"
)

func main() {
	rng := rand.New(rand.NewSource(17))
	schema := relation.Schema{Attrs: []relation.Attribute{
		{Name: "age", Values: []string{"20-25", "25-30", "30-35", "35-40", "40-45"}, Ordered: true},
		{Name: "ethnicity", Values: []string{"Chinese", "Indian", "German", "Brazilian"}},
		{Name: "car", Values: []string{"Toyota", "Honda", "BMW", "Ford"}},
	}}

	// A population of 400 individuals; the released relation carries the
	// attributes with names dropped.
	pop, err := relation.RandomRelation(schema, 400, rng)
	if err != nil {
		log.Fatal(err)
	}
	groups := pop.TupleGroups()
	fmt.Printf("population: %d individuals, %d distinct attribute tuples (anonymity sets), k = %d\n",
		pop.Records(), len(groups), pop.MinAnonymitySet())

	// Lemma 3 transported: a hacker knowing everyone's attributes exactly.
	fmt.Printf("full-knowledge worst case (Lemma 3 over anonymity sets): %.0f expected re-identifications\n\n",
		pop.ExpectedCracksFullKnowledge())

	// The paper's three individuals.
	john := relation.NewKnowledge(schema)
	must(john.Exact(schema, "ethnicity", "Chinese"))
	must(john.Exact(schema, "car", "Toyota"))
	mary := relation.NewKnowledge(schema)
	must(mary.Range(schema, "age", "30-35", "35-40"))
	info := relation.PartialInfo{0: john, 1: mary} // Bob: absent = no knowledge

	rep, err := relation.AssessDisclosureCtx(context.Background(), pop, info, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hacker knows John (Chinese, Toyota) and Mary's age band; nothing about Bob or the rest:\n")
	fmt.Printf("  expected re-identifications (O-estimate with propagation): %.3f of %d\n",
		rep.OEstimate, rep.Individuals)
	fmt.Printf("  individuals pinned down with certainty: %d\n\n", len(rep.PinnedDown))

	// Escalation: the hacker learns one exact attribute about a growing
	// fraction of the population — the relational analogue of Figure 11's
	// compliancy sweep.
	fmt.Println("knowledge coverage vs expected re-identifications:")
	for _, fraction := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		info := relation.PartialInfo{}
		known := int(fraction * float64(pop.Records()))
		for _, x := range rng.Perm(pop.Records())[:known] {
			k := relation.NewKnowledge(schema)
			attr := schema.Attrs[rng.Intn(len(schema.Attrs))]
			ai := schema.AttrIndex(attr.Name)
			must(k.Exact(schema, attr.Name, attr.Values[pop.Value(x, ai)]))
			info[x] = k
		}
		rep, err := relation.AssessDisclosureCtx(context.Background(), pop, info, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4.0f%% of individuals known on one attribute: E(cracks) = %7.2f (%.1f%%)\n",
			fraction*100, rep.OEstimate, 100*rep.OEstimate/float64(rep.Individuals))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
