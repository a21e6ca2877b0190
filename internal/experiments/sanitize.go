package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/perturb"
)

// RunSanitize compares the sanitization strategies the paper's introduction
// contrasts, on a correlated market-basket database:
//
//   - plain anonymization: zero distortion, full frequency signal exposed;
//   - uniform randomization at two strengths (Evfimievski et al., ref [10]):
//     supports must be reconstructed by bias-corrected estimators, and the
//     frequency signal a hacker matches against is blunted.
//
// Utility is measured as the mean relative error of reconstructed item
// supports and the recall of the true top-20 items; risk as the compliancy
// of a δ_med ball-park belief function against the released frequencies and
// the O-estimate it yields.
func RunSanitize(ctx context.Context, cfg Config) (*Report, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{ID: "sanitize", Title: "Sanitization trade-off: anonymization vs randomization"}

	trans := 4000
	if cfg.Quick {
		trans = 1000
	}
	db, err := datagen.Quest(datagen.QuestConfig{Items: 120, Transactions: trans, Patterns: 40}, rng)
	if err != nil {
		return nil, err
	}
	trueCounts := db.SupportCounts()
	trueFreqs := db.Frequencies()
	gr := dataset.GroupItems(db.Table())
	bf := belief.UniformWidth(trueFreqs, gr.MedianGap())

	tb := Table{
		Header: []string{"release", "support err %", "top-20 recall", "hacker α", "O-estimate", "OE fraction"},
	}

	// Plain anonymization: supports exact, belief fully compliant.
	oe, err := core.OEstimateCtx(ctx, bf, db.Table(), core.OEOptions{Propagate: true})
	if err != nil {
		return nil, err
	}
	n := float64(db.Items())
	tb.Rows = append(tb.Rows, []string{
		"anonymization", "0.00", "1.00", "1.00", f3(oe.Value), f4(oe.Value / n),
	})

	for _, params := range []perturb.Params{
		{Keep: 0.95, Insert: 0.01},
		{Keep: 0.80, Insert: 0.10},
	} {
		release, err := perturb.Randomize(db, params, rng)
		if err != nil {
			return nil, err
		}
		est, err := perturb.EstimateSupports(release, db.Transactions(), params)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("randomized k=%.2f i=%.2f", params.Keep, params.Insert),
			f2(meanRelErr(trueCounts, est) * 100),
			f2(topKRecall(trueCounts, est, 20)),
			f2(bf.Alpha(release.Frequencies())),
			"-", "-",
		})
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"anonymization keeps mining exact but leaves the full frequency signal for the hacker (α = 1): the paper's dilemma",
		"randomization blunts the hacker (α collapses) but mining must run on reconstructed supports with the reported error — 'changing the data characteristics may affect the outcome too much'")
	return rep, nil
}

func meanRelErr(trueCounts []int, est []float64) float64 {
	sum, cnt := 0.0, 0
	for x, c := range trueCounts {
		if c == 0 {
			continue
		}
		sum += math.Abs(est[x]-float64(c)) / float64(c)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

func topKRecall(trueCounts []int, est []float64, k int) float64 {
	if k > len(trueCounts) {
		k = len(trueCounts)
	}
	trueTop := topK(func(x int) float64 { return float64(trueCounts[x]) }, len(trueCounts), k)
	estTop := topK(func(x int) float64 { return est[x] }, len(est), k)
	hit := 0
	for x := range trueTop {
		if estTop[x] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

func topK(score func(int) float64, n, k int) map[int]bool {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return score(idx[a]) > score(idx[b]) })
	out := map[int]bool{}
	for _, x := range idx[:k] {
		out[x] = true
	}
	return out
}
