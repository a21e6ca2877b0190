package core_test

import (
	"context"
	"fmt"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/dataset"
)

// The paper's Figure 4(a) chain: exact expectation vs the O-estimate.
func ExampleChainSpec() {
	chain := core.Figure4aChain()
	exact, _ := chain.ExpectedCracks()
	oe, _ := chain.OEstimate()
	_, pct, _ := chain.Delta()
	fmt.Printf("exact %.4f  O-estimate %.4f  error %.2f%%\n", exact, oe, pct)
	// Output:
	// exact 1.6444  O-estimate 1.6417  error 0.17%
}

// The O-estimate of Figure 5 on the BigMart example under belief function h.
func ExampleOEstimateCtx() {
	ft, _ := dataset.NewTable(10, []int{5, 4, 5, 5, 3, 5})
	h := belief.MustNew([]belief.Interval{
		{Lo: 0, Hi: 1}, {Lo: 0.4, Hi: 0.5}, {Lo: 0.5, Hi: 0.5},
		{Lo: 0.4, Hi: 0.6}, {Lo: 0.1, Hi: 0.4}, {Lo: 0.5, Hi: 0.5},
	})
	res, _ := core.OEstimateCtx(context.Background(), h, ft, core.OEOptions{})
	fmt.Printf("OE(h, BigMart) = %.4f expected cracks\n", res.Value)
	// Output:
	// OE(h, BigMart) = 1.5667 expected cracks
}

// Lemma 3: with exact frequency knowledge, one expected crack per group.
func ExampleExpectedCracksPointValued() {
	ft, _ := dataset.NewTable(10, []int{5, 4, 5, 5, 3, 5})
	fmt.Println(core.ExpectedCracksPointValued(dataset.GroupItems(ft)))
	// Output:
	// 3
}
