// Package ctxtest is the ctxbudget provider fixture: tests register it in
// ctxbudget.Providers before running the analyzer.
package ctxtest

import "context"

// HeavySweep loops over its matrix (nest depth 2) without accepting a
// context.
func HeavySweep(rows [][]int) int { // want `HeavySweep loops over its input`
	total := 0
	for _, r := range rows {
		for _, v := range r {
			total += v
		}
	}
	return total
}

// Light does a single linear pass; no context needed.
func Light(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

// Direct accepts the context itself.
func Direct(ctx context.Context, rows [][]int) (int, error) {
	total := 0
	for _, r := range rows {
		for _, v := range r {
			total += v
		}
	}
	return total, ctx.Err()
}

// Blessed is a context-free wrapper forwarding to its Ctx sibling; the
// context it invents is flagged like any other, so twins cannot return.
func Blessed(rows [][]int) int {
	v, _ := BlessedCtx(context.Background(), rows) // want `context\.Background originates inside a compute kernel`
	return v
}

// BlessedCtx is the cancelable variant.
func BlessedCtx(ctx context.Context, rows [][]int) (int, error) {
	total := 0
	for _, r := range rows {
		for _, v := range r {
			total += v
		}
	}
	return total, ctx.Err()
}

// Rogue originates a context outside the wrapper pattern.
func Rogue(xs []int) error {
	ctx := context.Background() // want `context\.Background originates inside a compute kernel`
	_ = xs
	return ctx.Err()
}

// Table exercises the method cases.
type Table struct{ rows [][]int }

// Scan is the method form of the same wrapper: flagged too.
func (t *Table) Scan() int {
	v, _ := t.ScanCtx(context.Background()) // want `context\.Background originates inside a compute kernel`
	return v
}

// ScanCtx is the cancelable variant.
func (t *Table) ScanCtx(ctx context.Context) (int, error) {
	total := 0
	for _, r := range t.rows {
		for _, v := range r {
			total += v
		}
	}
	return total, ctx.Err()
}

// Grind is heavy without a context parameter.
func (t *Table) Grind() int { // want `Grind loops over its input`
	total := 0
	for _, r := range t.rows {
		for _, v := range r {
			total += v
		}
	}
	return total
}

// closure nests the loop inside a FuncLit created inside a loop; the
// analyzer counts the literal at the depth where it appears.
func Closure(rows [][]int) int { // want `Closure loops over its input`
	total := 0
	for _, r := range rows {
		f := func() {
			for _, v := range r {
				total += v
			}
		}
		f()
	}
	return total
}
