// Package cachetaint defines an Analyzer enforcing the repo's
// never-cache-degraded invariant statically: a verdict value whose Degraded
// field may be true must not reach the riskcache store or its snapshot
// files ungated. The service's disclosure verdicts are cached by content
// digest, so one cached degraded outcome would be replayed to every later
// request for the same release — the invariant is currently upheld by
// convention (server.verdict's compute callback returns !o.Degraded as the
// cacheable flag, the snapshot codec skips degraded entries) and by tests
// that must think to exercise it; this analyzer turns it into a
// whole-program guarantee.
//
// Terms, each carried across package boundaries as a fact:
//
//   - A *carrier* is a named struct type with a `Degraded bool` field
//     (server.Outcome, recipe.Result, ...). Fact: DegradedCarrier.
//   - A *gate* is a function whose results are (V, bool, error) with V a
//     carrier and whose every return either hardwires the bool to false,
//     derives it from a carrier's Degraded field, or delegates — returning
//     or forwarding the results of a single call to another gate. Fact:
//     CacheGate.
//   - A *guard* is a function whose body consults a carrier's Degraded
//     field at all. Fact: DegradedGuard.
//
// Checked sinks (methods of riskcache.Cache):
//
//   - GetOrCompute: a compute argument producing a carrier must be a gate.
//   - Put: storing a carrier is only allowed inside a guard (the caller
//     must have consulted Degraded).
//   - WriteSnapshot/SaveFile: a carrier-encoding callback must be a guard
//     (snapshotEncode's ErrSkipEntry pattern).
//   - ReadSnapshot/LoadFile: a carrier-decoding callback must be a guard
//     (a snapshot file is an input; degraded entries must be rejected on
//     load too).
package cachetaint

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
)

// CachePath is the import path of the cache package whose methods are the
// guarded sinks. Variable so the fixture tests can retarget it.
var CachePath = "repro/internal/riskcache"

// DegradedCarrier marks a named struct type carrying a `Degraded bool`
// field.
type DegradedCarrier struct{}

// AFact implements analysis.Fact.
func (*DegradedCarrier) AFact() {}

// CacheGate marks a function whose (V, bool, error) results derive the
// cacheable bool from Degraded (or hardwire false) on every return path.
type CacheGate struct{}

// AFact implements analysis.Fact.
func (*CacheGate) AFact() {}

// DegradedGuard marks a function whose body consults a carrier's Degraded
// field.
type DegradedGuard struct{}

// AFact implements analysis.Fact.
func (*DegradedGuard) AFact() {}

// Analyzer is the cachetaint check.
var Analyzer = &analysis.Analyzer{
	Name:      "cachetaint",
	Doc:       "degraded verdicts must not reach riskcache.Cache or its snapshots: compute callbacks passed to GetOrCompute must gate their cacheable result on Degraded (or delegate to a function that does), Put of a degraded-carrying value must sit inside a function that consulted Degraded, and snapshot encode/decode callbacks must check Degraded. Gate and carrier classifications flow across packages as facts.",
	FactTypes: []analysis.Fact{new(DegradedCarrier), new(CacheGate), new(DegradedGuard)},
	Run:       run,
}

type checker struct {
	pass *analysis.Pass
	// localGates holds gate-classified function objects of this package,
	// including unexported ones; package-level gates are also exported as
	// facts for dependent packages.
	localGates  map[*types.Func]bool
	localGuards map[*types.Func]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:        pass,
		localGates:  map[*types.Func]bool{},
		localGuards: map[*types.Func]bool{},
	}

	// Phase 1: export carrier facts for this package's named struct types
	// with a Degraded bool field, so dependent packages can classify
	// values of these types without seeing their source.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if carrierStruct(tn.Type().Underlying()) {
			pass.ExportObjectFact(tn, &DegradedCarrier{})
		}
	}

	// Phase 2: classify every package-level function (and method) as guard
	// and/or gate. Gate-ness can depend on the gate-ness of a callee
	// declared later in the package, so iterate to a fixed point; each
	// round only adds classifications, so it terminates. Declarations are
	// visited in source order — deterministic, per this suite's own
	// maporder rule.
	decls := c.funcDecls()
	for _, d := range decls {
		if d.decl.Body != nil && c.mentionsDegraded(d.decl.Body) {
			c.localGuards[d.fn] = true
			pass.ExportObjectFact(d.fn, &DegradedGuard{})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if c.localGates[d.fn] || d.decl.Body == nil {
				continue
			}
			if c.gateSignature(d.fn.Type()) && c.gatedBody(d.decl.Body) {
				c.localGates[d.fn] = true
				pass.ExportObjectFact(d.fn, &CacheGate{})
				changed = true
			}
		}
	}

	// Phase 3: check the sinks.
	for _, file := range pass.Files {
		c.checkFuncs(file)
	}
	return nil
}

type funcEntry struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

// funcDecls lists this package's function declarations in source order.
func (c *checker) funcDecls() []funcEntry {
	var out []funcEntry
	for _, file := range c.pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out = append(out, funcEntry{fn, fd})
				}
			}
		}
	}
	return out
}

// carrierStruct reports whether u is a struct with a `Degraded bool` field.
func carrierStruct(u types.Type) bool {
	st, ok := u.(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "Degraded" {
			continue
		}
		if b, ok := f.Type().(*types.Basic); ok && b.Kind() == types.Bool {
			return true
		}
	}
	return false
}

// isCarrier reports whether t (possibly a pointer) is a degraded-carrying
// named type, via the cross-package fact or, for types whose structure is
// visible, the struct shape itself.
func (c *checker) isCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	var fact DegradedCarrier
	if c.pass.ImportObjectFact(named.Obj(), &fact) {
		return true
	}
	return carrierStruct(named.Underlying())
}

// mentionsDegraded reports whether node contains a selector of a carrier's
// Degraded field — the loose "this code thought about degradation" guard
// criterion used for Put call sites and snapshot callbacks.
func (c *checker) mentionsDegraded(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Degraded" {
			if c.isCarrier(c.pass.TypesInfo.Types[sel.X].Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// gateSignature reports whether t is func(...) (V, bool, error) with V a
// carrier — the GetOrCompute compute shape.
func (c *checker) gateSignature(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() != 3 {
		return false
	}
	if !c.isCarrier(res.At(0).Type()) {
		return false
	}
	b, ok := res.At(1).Type().(*types.Basic)
	if !ok || b.Kind() != types.Bool {
		return false
	}
	named, ok := types.Unalias(res.At(2).Type()).(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// gatedBody reports whether every return in body (excluding nested function
// literals) is gated: the cacheable result is constant false, derives from
// a Degraded field, is forwarded from a single gate call, or the whole
// return delegates to a gate call.
func (c *checker) gatedBody(body *ast.BlockStmt) bool {
	gated := true
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if !gated {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its returns belong to a different function
		case *ast.ReturnStmt:
			if !c.gatedReturn(n, body) {
				gated = false
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return gated
}

func (c *checker) gatedReturn(ret *ast.ReturnStmt, body *ast.BlockStmt) bool {
	switch len(ret.Results) {
	case 1:
		// return gate(...)
		call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
		return ok && c.isGateCall(call)
	case 3:
		cacheable := ast.Unparen(ret.Results[1])
		if tv, ok := c.pass.TypesInfo.Types[cacheable]; ok && tv.Value != nil {
			return tv.Value.Kind() == constant.Bool && !constant.BoolVal(tv.Value)
		}
		if c.mentionsDegraded(cacheable) {
			return true
		}
		// return v, ok, err where `v, ok, err := gate(...)`.
		if id, ok := cacheable.(*ast.Ident); ok {
			return c.assignedFromGate(id, body)
		}
		return false
	default:
		return false
	}
}

// assignedFromGate reports whether ident's object is bound, somewhere in
// body, as the second variable of a multi-assign from a single gate call.
func (c *checker) assignedFromGate(id *ast.Ident, body *ast.BlockStmt) bool {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != 3 || len(as.Rhs) != 1 {
			return true
		}
		lhs, isIdent := as.Lhs[1].(*ast.Ident)
		if !isIdent {
			return true
		}
		lobj := c.pass.TypesInfo.Defs[lhs]
		if lobj == nil {
			lobj = c.pass.TypesInfo.Uses[lhs]
		}
		if lobj != obj {
			return true
		}
		if call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); isCall && c.isGateCall(call) {
			ok = true
			return false
		}
		return true
	})
	return ok
}

// isGateCall reports whether call invokes a classified gate — a local one
// or one whose CacheGate fact was exported by a dependency.
func (c *checker) isGateCall(call *ast.CallExpr) bool {
	fn := calleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if c.localGates[fn] {
		return true
	}
	var fact CacheGate
	return c.pass.ImportObjectFact(fn, &fact)
}

// isGateExpr reports whether expr (a GetOrCompute compute argument) is a
// gate: a gated function literal or a reference to a gate function.
func (c *checker) isGateExpr(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return c.gatedBody(e.Body)
	case *ast.Ident, *ast.SelectorExpr:
		fn := referencedFunc(c.pass.TypesInfo, e)
		if fn == nil {
			return false
		}
		if c.localGates[fn] {
			return true
		}
		var fact CacheGate
		return c.pass.ImportObjectFact(fn, &fact)
	}
	return false
}

// isGuardExpr reports whether expr (a snapshot callback argument) is a
// guard: a function literal mentioning Degraded or a reference to a
// classified guard function.
func (c *checker) isGuardExpr(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		return c.mentionsDegraded(e.Body)
	case *ast.Ident, *ast.SelectorExpr:
		fn := referencedFunc(c.pass.TypesInfo, e)
		if fn == nil {
			return false
		}
		if c.localGuards[fn] {
			return true
		}
		var fact DegradedGuard
		return c.pass.ImportObjectFact(fn, &fact)
	}
	return false
}

// calleeFunc resolves the *types.Func a call invokes, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return referencedFunc(info, ast.Unparen(call.Fun))
}

func referencedFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkFuncs walks every function body in file, tracking the innermost
// enclosing function so Put's guard criterion has its scope.
func (c *checker) checkFuncs(file *ast.File) {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			c.checkBody(fd.Body)
		}
	}
}

// checkBody checks the sink calls of one function body; nested function
// literals are checked with their own body as the guard scope.
func (c *checker) checkBody(body *ast.BlockStmt) {
	guarded := c.mentionsDegraded(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.checkBody(lit.Body)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.checkSink(call, guarded)
		return true
	})
}

// checkSink reports a diagnostic when call is an ungated riskcache sink.
func (c *checker) checkSink(call *ast.CallExpr, guarded bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != CachePath {
		return
	}
	switch fn.Name() {
	case "GetOrCompute":
		if len(call.Args) != 3 {
			return
		}
		compute := call.Args[2]
		if !c.gateSignature(c.exprType(compute)) {
			return // not computing a carrier: out of scope
		}
		if !c.isGateExpr(compute) {
			c.pass.Reportf(compute.Pos(), "compute function can cache a degraded verdict: every return must set the cacheable result to false or !(...).Degraded, or delegate to a gated function")
		}
	case "Put":
		if len(call.Args) != 2 || !c.isCarrier(c.exprType(call.Args[1])) {
			return
		}
		if !guarded {
			c.pass.Reportf(call.Pos(), "degraded-carrying value stored with Put in a function that never consults Degraded")
		}
	case "WriteSnapshot", "SaveFile":
		if len(call.Args) < 2 {
			return
		}
		encode := call.Args[1]
		if !c.encodesCarrier(c.exprType(encode)) {
			return
		}
		if !c.isGuardExpr(encode) {
			c.pass.Reportf(encode.Pos(), "snapshot encoder can write a degraded verdict: check Degraded and return riskcache.ErrSkipEntry")
		}
	case "ReadSnapshot", "LoadFile":
		if len(call.Args) < 2 {
			return
		}
		decode := call.Args[1]
		if !c.decodesCarrier(c.exprType(decode)) {
			return
		}
		if !c.isGuardExpr(decode) {
			c.pass.Reportf(decode.Pos(), "snapshot decoder can load a degraded verdict: check Degraded and reject the entry")
		}
	}
}

func (c *checker) exprType(e ast.Expr) types.Type {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// encodesCarrier reports whether t is func(V) (..., error) with V a carrier.
func (c *checker) encodesCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return false
	}
	return c.isCarrier(sig.Params().At(0).Type())
}

// decodesCarrier reports whether t is func(...) (V, bool, error) with V a
// carrier — the ReadSnapshot decode shape.
func (c *checker) decodesCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	return c.gateSignature(t)
}
