// Package anonrisk is a Go reproduction of Lakshmanan, Ng and Ramesh,
// "To Do or Not To Do: The Dilemma of Disclosing Anonymized Data"
// (SIGMOD 2005): a library for quantifying the re-identification risk of
// releasing anonymized transaction data to a hacker holding partial
// information.
//
// The model: a data owner anonymizes a transaction database by renaming
// items through a secret bijection and releases it for frequent-set mining.
// A hacker who can guess frequency ranges for the original items — a belief
// function — narrows down which anonymized item hides which original by
// matching observed frequencies against those ranges. Assuming every
// consistent guess (perfect matching of the consistency graph) is equally
// likely, the owner's risk is the expected number of correctly
// re-identified items ("cracks").
//
// The package front door covers the full workflow:
//
//	db, _ := anonrisk.ReadFIMI(file)               // or build/generate one
//	release, key, _ := anonrisk.Anonymize(db, rng) // what the owner ships
//	res, _ := anonrisk.AssessRiskCtx(ctx, db,      // Figure 8's recipe
//		anonrisk.AssessOptions{Tolerance: 0.1, Propagate: true, Rng: rng})
//	if res.Disclose { ... }
//
// Fine-grained control — belief-function construction, exact closed forms
// (Lemmas 1-6), the O-estimate with degree-1 propagation, permanent-based
// exact expectations, the matching-space sampler, benchmark data generators
// and the experiment harness — lives in the internal packages
// (internal/belief, internal/core, internal/bipartite, internal/matching,
// internal/datagen, internal/recipe, internal/experiments); this package
// re-exports the types needed to drive them together.
package anonrisk
