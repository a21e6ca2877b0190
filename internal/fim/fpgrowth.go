package fim

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// fpNode is a node of an FP-tree. Children are kept in a map keyed by item;
// header chains link nodes carrying the same item across the tree.
type fpNode struct {
	item     dataset.Item
	count    int
	parent   *fpNode
	children map[dataset.Item]*fpNode
	next     *fpNode // header-table chain
}

// fpTree is an FP-tree plus its header table.
type fpTree struct {
	root    *fpNode
	headers map[dataset.Item]*fpNode
	counts  map[dataset.Item]int // item -> total count in this tree
}

func newFPTree() *fpTree {
	return &fpTree{
		root:    &fpNode{item: -1, children: map[dataset.Item]*fpNode{}},
		headers: map[dataset.Item]*fpNode{},
		counts:  map[dataset.Item]int{},
	}
}

// insert adds a (sorted-by-rank) item path with the given count.
func (t *fpTree) insert(path []dataset.Item, count int) {
	node := t.root
	for _, x := range path {
		child := node.children[x]
		if child == nil {
			child = &fpNode{item: x, parent: node, children: map[dataset.Item]*fpNode{}}
			child.next = t.headers[x]
			t.headers[x] = child
			node.children[x] = child
		}
		child.count += count
		t.counts[x] += count
		node = child
	}
}

// FPGrowth mines all itemsets with support count >= minSupport by building an
// FP-tree and recursively mining conditional trees. It produces exactly the
// same result set as Apriori, the package tests' oracle.
func FPGrowth(db *dataset.Database, minSupport int) ([]FrequentItemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fim: minimum support %d, want >= 1", minSupport)
	}
	counts := db.SupportCounts()
	rank := frequencyRank(counts, minSupport)

	tree := newFPTree()
	var path []dataset.Item
	for i := 0; i < db.Transactions(); i++ {
		path = path[:0]
		for _, x := range db.Transaction(i) {
			if rank[x] >= 0 {
				path = append(path, x)
			}
		}
		sort.Slice(path, func(a, b int) bool { return rank[path[a]] < rank[path[b]] })
		if len(path) > 0 {
			tree.insert(path, 1)
		}
	}

	var result []FrequentItemset
	mineTree(tree, nil, minSupport, &result)
	SortItemsets(result)
	return result, nil
}

// frequencyRank assigns each frequent item a dense rank by decreasing support
// (ties broken by item id); infrequent items get -1.
func frequencyRank(counts []int, minSupport int) []int {
	type ic struct{ item, count int }
	var freq []ic
	for x, c := range counts {
		if c >= minSupport {
			freq = append(freq, ic{x, c})
		}
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].count != freq[j].count {
			return freq[i].count > freq[j].count
		}
		return freq[i].item < freq[j].item
	})
	rank := make([]int, len(counts))
	for i := range rank {
		rank[i] = -1
	}
	for r, f := range freq {
		rank[f.item] = r
	}
	return rank
}

// mineTree emits every frequent itemset of the tree extended by suffix.
func mineTree(t *fpTree, suffix Itemset, minSupport int, out *[]FrequentItemset) {
	// Iterate items in the tree in a deterministic order.
	items := make([]dataset.Item, 0, len(t.counts))
	for x := range t.counts {
		items = append(items, x)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	for _, x := range items {
		support := t.counts[x]
		if support < minSupport {
			continue
		}
		withX := make(Itemset, 0, len(suffix)+1)
		withX = append(withX, x)
		withX = append(withX, suffix...)
		sort.Slice(withX, func(i, j int) bool { return withX[i] < withX[j] })
		*out = append(*out, FrequentItemset{Items: withX, Support: support})

		// Build x's conditional tree from its prefix paths.
		cond := newFPTree()
		for node := t.headers[x]; node != nil; node = node.next {
			var prefix []dataset.Item
			for p := node.parent; p != nil && p.item != -1; p = p.parent {
				prefix = append(prefix, p.item)
			}
			// prefix is leaf-to-root; reverse to root-to-leaf insertion order.
			for i, j := 0, len(prefix)-1; i < j; i, j = i+1, j-1 {
				prefix[i], prefix[j] = prefix[j], prefix[i]
			}
			if len(prefix) > 0 {
				cond.insert(prefix, node.count)
			}
		}
		// Drop infrequent items inside the conditional tree by rebuilding it
		// pruned (simple and correct; conditional trees are small).
		pruned := pruneTree(cond, minSupport)
		if len(pruned.counts) > 0 {
			mineTree(pruned, withX, minSupport, out)
		}
	}
}

// pruneTree rebuilds a conditional tree keeping only items whose conditional
// support reaches the threshold.
func pruneTree(t *fpTree, minSupport int) *fpTree {
	keep := map[dataset.Item]bool{}
	for x, c := range t.counts {
		if c >= minSupport {
			keep[x] = true
		}
	}
	out := newFPTree()
	var walk func(node *fpNode, path []dataset.Item)
	walk = func(node *fpNode, path []dataset.Item) {
		// Children live in a map; visit them in item order so the rebuilt
		// tree's header chains (and hence mining order) are deterministic.
		items := make([]dataset.Item, 0, len(node.children))
		for it := range node.children {
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		for _, it := range items {
			child := node.children[it]
			p := path
			if keep[child.item] {
				p = append(append([]dataset.Item(nil), path...), child.item)
			}
			// Insert the increment contributed by this node itself (its
			// count minus its children's counts flows through unchanged, but
			// inserting per-node deltas is equivalent and simpler: insert the
			// node's own count and subtract children's counts).
			delta := child.count
			for _, gc := range child.children {
				delta -= gc.count
			}
			if delta > 0 && len(p) > 0 {
				out.insert(p, delta)
			}
			walk(child, p)
		}
	}
	walk(t.root, nil)
	return out
}
