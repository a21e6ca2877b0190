// Package dataset provides the transaction-database substrate used throughout
// the reproduction of Lakshmanan, Ng and Ramesh, "To Do or Not To Do: The
// Dilemma of Disclosing Anonymized Data" (SIGMOD 2005).
//
// A database is a sequence of transactions over a universe of n items,
// identified by dense integer ids 0..n-1. The frequency of an item is the
// fraction of transactions containing it (Agrawal et al., SIGMOD 1993). All
// of the paper's risk analyses depend on the data only through the multiset
// of item support counts, so the package exposes both a full Database (with
// transactions, for mining and I/O) and a lighter FrequencyTable (counts
// only, for large-scale risk experiments).
package dataset

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Item is a dense item identifier in [0, n).
type Item = int32

// Transaction is a set of items, stored sorted and duplicate-free.
type Transaction []Item

// Database is a transaction database over a fixed universe of items.
// The universe size is fixed at construction; items that appear in no
// transaction still belong to the universe (they form a support-0 group,
// which matters for the bipartite-graph analyses).
type Database struct {
	n  int           // universe size |I|
	tx []Transaction // transactions, each sorted, non-empty
}

// ErrEmptyTransaction is returned when constructing a database containing an
// empty transaction; the paper requires every transaction to be a non-empty
// subset of the universe.
var ErrEmptyTransaction = errors.New("dataset: empty transaction")

// New builds a database over a universe of n items from the given
// transactions. Each transaction is defensively copied, sorted and
// de-duplicated. It returns an error if n <= 0, any transaction is empty, or
// any item id is outside [0, n).
func New(n int, transactions []Transaction) (*Database, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: universe size %d, want > 0", n)
	}
	db := &Database{n: n, tx: make([]Transaction, 0, len(transactions))}
	for i, t := range transactions {
		if len(t) == 0 {
			return nil, fmt.Errorf("dataset: transaction %d: %w", i, ErrEmptyTransaction)
		}
		c := append(Transaction(nil), t...)
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		c = dedupSorted(c)
		if c[0] < 0 || int(c[len(c)-1]) >= n {
			return nil, fmt.Errorf("dataset: transaction %d: item out of range [0,%d)", i, n)
		}
		db.tx = append(db.tx, c)
	}
	return db, nil
}

// MustNew is New, panicking on error. Intended for tests and examples.
func MustNew(n int, transactions []Transaction) *Database {
	db, err := New(n, transactions)
	if err != nil {
		panic(err)
	}
	return db
}

func dedupSorted(t Transaction) Transaction {
	out := t[:1]
	for _, x := range t[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// Items returns the universe size |I|.
func (db *Database) Items() int { return db.n }

// Transactions returns the number of transactions |D|.
func (db *Database) Transactions() int { return len(db.tx) }

// Transaction returns the i-th transaction. The returned slice must not be
// modified.
func (db *Database) Transaction(i int) Transaction { return db.tx[i] }

// Size returns the total number of item occurrences across all transactions.
func (db *Database) Size() int {
	total := 0
	for _, t := range db.tx {
		total += len(t)
	}
	return total
}

// SupportCounts returns, for each item, the number of transactions that
// contain it.
func (db *Database) SupportCounts() []int {
	counts := make([]int, db.n)
	for _, t := range db.tx {
		for _, x := range t {
			counts[x]++
		}
	}
	return counts
}

// Frequencies returns, for each item, its frequency: support count divided by
// the number of transactions.
func (db *Database) Frequencies() []float64 {
	counts := db.SupportCounts()
	m := float64(len(db.tx))
	freqs := make([]float64, db.n)
	for i, c := range counts {
		freqs[i] = float64(c) / m
	}
	return freqs
}

// FrequencyTable captures exactly the information the paper's risk analyses
// need from a database: the universe size, the number of transactions, and
// each item's support count.
type FrequencyTable struct {
	NItems        int
	NTransactions int
	Counts        []int // len NItems; Counts[x] in [0, NTransactions]

	// digest memoizes Digest(). The server shares one table across many
	// concurrent requests, so the memo is an atomic pointer rather than a
	// plain field; ApplyDiff stores nil to invalidate it. Mutating Counts or
	// NTransactions directly (nothing outside this package does) would leave
	// a stale memo — go through ApplyDiff.
	digest atomic.Pointer[string]
}

// Table extracts the FrequencyTable of the database.
func (db *Database) Table() *FrequencyTable {
	return &FrequencyTable{
		NItems:        db.n,
		NTransactions: len(db.tx),
		Counts:        db.SupportCounts(),
	}
}

// NewTable validates and wraps raw support counts. It returns an error if
// nTransactions <= 0 or any count is outside [0, nTransactions].
//
// The table takes ownership of counts: it keeps the slice as its Counts
// without copying, and ApplyDiff edits it in place. A caller that goes on
// using the slice, or passes another table's Counts, must pass a copy
// (slices.Clone).
func NewTable(nTransactions int, counts []int) (*FrequencyTable, error) {
	if nTransactions <= 0 {
		return nil, fmt.Errorf("dataset: %d transactions, want > 0", nTransactions)
	}
	if len(counts) == 0 {
		return nil, errors.New("dataset: empty count vector")
	}
	for x, c := range counts {
		if c < 0 || c > nTransactions {
			return nil, fmt.Errorf("dataset: item %d: count %d outside [0,%d]", x, c, nTransactions)
		}
	}
	return &FrequencyTable{NItems: len(counts), NTransactions: nTransactions, Counts: counts}, nil
}

// Frequency returns item x's frequency Counts[x]/NTransactions.
func (ft *FrequencyTable) Frequency(x int) float64 {
	return float64(ft.Counts[x]) / float64(ft.NTransactions)
}

// Frequencies returns the full frequency vector.
func (ft *FrequencyTable) Frequencies() []float64 {
	freqs := make([]float64, ft.NItems)
	for x := range freqs {
		freqs[x] = ft.Frequency(x)
	}
	return freqs
}

// Clone returns a deep copy of the table.
func (ft *FrequencyTable) Clone() *FrequencyTable {
	return &FrequencyTable{
		NItems:        ft.NItems,
		NTransactions: ft.NTransactions,
		Counts:        append([]int(nil), ft.Counts...),
	}
}

// Merge concatenates the transactions of several databases over a shared
// universe — the consortium pooling of the paper's "mining for the common
// good" scenario. All inputs must agree on the universe size.
func Merge(dbs ...*Database) (*Database, error) {
	if len(dbs) == 0 {
		return nil, errors.New("dataset: nothing to merge")
	}
	n := dbs[0].n
	var txs []Transaction
	for i, db := range dbs {
		if db.n != n {
			return nil, fmt.Errorf("dataset: database %d has universe %d, want %d", i, db.n, n)
		}
		txs = append(txs, db.tx...)
	}
	return New(n, txs)
}
