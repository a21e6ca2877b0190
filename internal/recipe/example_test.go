package recipe_test

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/recipe"
)

// Assess-Risk on a database whose items all share one frequency: the
// point-valued worst case (one expected crack) is already within a 25%
// tolerance, so the recipe stops at step 2.
func ExampleAssessRiskCtx() {
	counts := []int{7, 7, 7, 7, 7}
	ft, _ := dataset.NewTable(20, counts)
	res, _ := recipe.AssessRiskCtx(context.Background(), ft, recipe.Options{
		Tolerance: 0.25,
		Rng:       rand.New(rand.NewSource(1)),
	})
	fmt.Printf("disclose=%v stage=%d groups=%d\n", res.Disclose, res.Stage, res.Groups)
	// Output:
	// disclose=true stage=1 groups=1
}
