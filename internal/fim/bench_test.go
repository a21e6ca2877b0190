package fim

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func questDB(b *testing.B, items, trans int) *dataset.Database {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	db, err := datagen.Quest(datagen.QuestConfig{Items: items, Transactions: trans}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkApriori(b *testing.B) {
	db := questDB(b, 80, 5000)
	minSup, _ := AbsoluteSupport(db, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apriori(db, minSup); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFPGrowth(b *testing.B) {
	db := questDB(b, 80, 5000)
	minSup, _ := AbsoluteSupport(db, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FPGrowth(db, minSup); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRules(b *testing.B) {
	db := questDB(b, 80, 5000)
	minSup, _ := AbsoluteSupport(db, 0.05)
	sets, err := FPGrowth(db, minSup)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rules(sets, db.Transactions(), 0.8); err != nil {
			b.Fatal(err)
		}
	}
}
