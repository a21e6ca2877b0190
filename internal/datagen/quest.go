package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
)

// QuestConfig parameterizes a correlated transaction generator in the spirit
// of the IBM QUEST synthetic data generator used throughout the frequent-set
// mining literature: transactions are unions of a few "potentially large"
// itemsets drawn from a Zipf-weighted pool (popularity 1/rank). Unlike the
// planted-count generators, QUEST data contains genuine multi-item patterns,
// which the mining examples (and the fim package benchmarks) need.
type QuestConfig struct {
	Items          int // domain size n
	Transactions   int // number of transactions to generate
	Patterns       int // size of the pattern pool (default 20)
	MeanPatternLen int // average pattern length (default 4)
	PatternsPerTx  int // average patterns unioned per transaction (default 2)
}

func (c QuestConfig) withDefaults() QuestConfig {
	if c.Patterns <= 0 {
		c.Patterns = 20
	}
	if c.MeanPatternLen <= 0 {
		c.MeanPatternLen = 4
	}
	if c.PatternsPerTx <= 0 {
		c.PatternsPerTx = 2
	}
	return c
}

// Quest generates a correlated transaction database.
func Quest(cfg QuestConfig, rng *rand.Rand) (*dataset.Database, error) {
	if cfg.Items <= 1 || cfg.Transactions <= 0 {
		return nil, fmt.Errorf("datagen: quest needs > 1 items and > 0 transactions")
	}
	cfg = cfg.withDefaults()

	// Pattern pool: each pattern is a random itemset whose length is
	// geometric-ish around the mean.
	patterns := make([]dataset.Transaction, cfg.Patterns)
	for i := range patterns {
		l := 1 + rng.Intn(2*cfg.MeanPatternLen-1)
		if l > cfg.Items {
			l = cfg.Items // a pattern cannot exceed the domain
		}
		seen := map[dataset.Item]bool{}
		for len(seen) < l {
			seen[dataset.Item(rng.Intn(cfg.Items))] = true
		}
		for x := range seen {
			patterns[i] = append(patterns[i], x)
		}
		// Map order would otherwise leak into the pattern layout: the same
		// seed must generate byte-identical datasets run to run.
		sort.Slice(patterns[i], func(a, b int) bool { return patterns[i][a] < patterns[i][b] })
	}
	// Zipf popularity weights.
	weights := make([]float64, cfg.Patterns)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	pick := func() int {
		u := rng.Float64() * total
		for i, w := range weights {
			u -= w
			if u <= 0 {
				return i
			}
		}
		return cfg.Patterns - 1
	}

	txs := make([]dataset.Transaction, 0, cfg.Transactions)
	for len(txs) < cfg.Transactions {
		items := map[dataset.Item]bool{}
		k := 1 + rng.Intn(2*cfg.PatternsPerTx-1)
		for p := 0; p < k; p++ {
			for _, x := range patterns[pick()] {
				items[x] = true
			}
		}
		if len(items) == 0 {
			continue
		}
		tx := make(dataset.Transaction, 0, len(items))
		for x := range items {
			tx = append(tx, x)
		}
		sort.Slice(tx, func(a, b int) bool { return tx[a] < tx[b] })
		txs = append(txs, tx)
	}
	return dataset.New(cfg.Items, txs)
}
