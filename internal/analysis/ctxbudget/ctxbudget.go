// Package ctxbudget enforces the repo's budget-threading convention
// (DESIGN.md §10.1): expensive entry points must be cancelable.
//
// Three rules, selected by the package's role:
//
// Provider packages (the compute kernels: bipartite, matching, core,
// recipe, relation, itemsetrisk):
//
//  1. An exported function or method whose body contains a loop nest of
//     depth ≥ 2 — the mechanical signature of "iterates over the dataset or
//     graph, possibly superlinearly" — must accept a context.Context.
//  2. context.Background()/context.TODO() may not originate inside a
//     provider: a kernel that invents its own context cannot be canceled
//     by its caller. This also rules out context-free wrappers
//     `func F(...)` forwarding to `FCtx(context.Background(), ...)`.
//
// Consumer packages (the serving layer: internal/server, cmd/riskd):
//
//  3. Calling a provider function F when a sibling FCtx exists forfeits the
//     request's deadline and work budget mid-call; the Ctx variant must be
//     used.
package ctxbudget

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Role describes how the analyzer treats a package.
type Role int

const (
	// RoleNone disables the analyzer for the package.
	RoleNone Role = iota
	// RoleProvider applies rules 1 and 2 (exported loopers need ctx;
	// contexts may not originate here).
	RoleProvider
	// RoleConsumer applies rule 3 (never call F where FCtx exists).
	RoleConsumer
)

// Providers and Consumers hold the import paths each role applies to.
// cmd/riskvet wires the real repo layout; tests substitute fixtures.
var (
	Providers = map[string]bool{
		"repro/internal/bipartite":   true,
		"repro/internal/matching":    true,
		"repro/internal/core":        true,
		"repro/internal/recipe":      true,
		"repro/internal/relation":    true,
		"repro/internal/itemsetrisk": true,
	}
	Consumers = map[string]bool{
		"repro/internal/server": true,
		"repro/cmd/riskd":       true,
	}
)

// RoleOf reports the role of an import path.
func RoleOf(path string) Role {
	switch {
	case Providers[path]:
		return RoleProvider
	case Consumers[path]:
		return RoleConsumer
	default:
		return RoleNone
	}
}

// Analyzer is the ctxbudget check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxbudget",
	Doc: "exported compute kernels with nested loops must accept a context.Context, " +
		"kernels must not originate contexts, and the serving layer must call the " +
		"Ctx variant when one exists",
	Run: run,
}

func run(pass *analysis.Pass) error {
	switch RoleOf(pass.Pkg.Path()) {
	case RoleProvider:
		checkProvider(pass)
	case RoleConsumer:
		checkConsumer(pass)
	}
	return nil
}

// --- rule 1: exported loopers need a context ---

func checkProvider(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Ctx") || hasContextParam(pass, fn) {
				continue
			}
			if maxLoopDepth(fn.Body) < 2 {
				continue
			}
			pass.Reportf(fn.Name.Pos(),
				"exported %s loops over its input (nest depth ≥ 2) but does not accept a context.Context; heavy work must be budgetable",
				fn.Name.Name)
		}
		checkNoContextOrigin(pass, f)
	}
}

// hasContextParam reports whether any parameter's type is context.Context.
func hasContextParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// maxLoopDepth computes the deepest for/range nesting in a body. Function
// literals inherit the depth of the point where they appear: a loop inside
// a closure that is itself created inside a loop still runs many times.
func maxLoopDepth(body *ast.BlockStmt) int {
	max := 0
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch mm := m.(type) {
			case *ast.ForStmt:
				if depth+1 > max {
					max = depth + 1
				}
				walk(mm.Body, depth+1)
				return false
			case *ast.RangeStmt:
				if depth+1 > max {
					max = depth + 1
				}
				walk(mm.Body, depth+1)
				return false
			}
			return true
		})
	}
	walk(body, 0)
	return max
}

// --- rule 2: contexts may not originate inside providers ---

func checkNoContextOrigin(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fnObj := callTarget(pass, call); fnObj != nil &&
				fnObj.Pkg() != nil && fnObj.Pkg().Path() == "context" &&
				(fnObj.Name() == "Background" || fnObj.Name() == "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s originates inside a compute kernel; accept a context.Context from the caller",
					fnObj.Name())
			}
			return true
		})
	}
}

// --- rule 3: consumers must prefer the Ctx variant ---

func checkConsumer(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := callTarget(pass, call)
			if obj == nil || obj.Pkg() == nil || RoleOf(obj.Pkg().Path()) != RoleProvider {
				return true
			}
			name := obj.Name()
			if strings.HasSuffix(name, "Ctx") {
				return true
			}
			if ctxSiblingOf(pass, call, obj) {
				pass.Reportf(call.Pos(),
					"%s.%s has a %sCtx variant; the serving layer must pass its request context so the call honors the deadline and work budget",
					obj.Pkg().Name(), name, name)
			}
			return true
		})
	}
}

// ctxSiblingOf reports whether the called provider function has a Ctx
// sibling: same package scope for plain functions, same receiver method set
// for methods.
func ctxSiblingOf(pass *analysis.Pass, call *ast.CallExpr, obj *types.Func) bool {
	want := obj.Name() + "Ctx"
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		ms := types.NewMethodSet(recv.Type())
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == want {
				return true
			}
		}
		return false
	}
	return obj.Pkg().Scope().Lookup(want) != nil
}

// callTarget resolves the *types.Func a call invokes, or nil for calls of
// function values, conversions, and builtins.
func callTarget(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
