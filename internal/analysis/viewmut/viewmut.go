// Package viewmut defines an analyzer that taint-tracks slices backed by a
// read-only mapping and flags in-place mutation of them.
//
// The v4 index container is queried through zero-copy views: mmapfile.View
// reinterprets mapped bytes as []T, and the deferred constructors
// (vantage.FromViewsDeferred, nbtree.NewFlatDeferred, ged.NewTableDeferred,
// nbindex.PartFromViewsDeferred) retain those views in struct fields. A
// write through any of them is a write to PROT_READ memory — SIGSEGV at
// best, silent cross-section corruption if the page was ever made private.
// The compiler cannot see this; viewmut can, via three facts that cross
// package boundaries:
//
//   - ViewSource, on a function: its result may alias a mapping (e.g.
//     mmapfile.(*File).Bytes, vantage.(*Ordering).DistRow). Derived from a
//     function returning tainted data; the primordial source is
//     syscall.Mmap itself.
//   - AliasesParams, on a function: its result aliases the memory of the
//     listed parameters (e.g. mmapfile.View aliases its byte argument), so
//     taint flows through the call when a tainted argument flows in.
//   - ViewHolder, on a struct field: the field retains caller-provided
//     slice memory (derived from constructors assigning parameters or
//     tainted values into fields), so every read of the field is tainted
//     everywhere the type is used.
//
// Holder fields are restricted to scalar-element slices (and maps of them) —
// exactly what mapped sections can store — so pointerful bookkeeping slices
// never taint. Writes through struct literals built locally in the same
// function are exempt (a builder initializing its own heap allocation), and
// the named copy-on-write thaw sites in ThawSites are exempt with the
// rationale recorded next to each.
package viewmut

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"graphrep/internal/analysis/framework"
)

// ViewSource marks a function whose result may alias a read-only mapping.
type ViewSource struct{}

func (*ViewSource) AFact()         {}
func (*ViewSource) String() string { return "ViewSource" }

// AliasesParams marks a function whose result aliases the memory of the
// parameters at the listed indices.
type AliasesParams struct{ Params []int }

func (*AliasesParams) AFact() {}
func (f *AliasesParams) String() string {
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = strconv.Itoa(p)
	}
	return "AliasesParams(" + strings.Join(parts, ",") + ")"
}

// ViewHolder marks a struct field that may retain caller-provided (and
// therefore possibly mapping-backed) slice memory.
type ViewHolder struct{}

func (*ViewHolder) AFact()         {}
func (*ViewHolder) String() string { return "ViewHolder" }

// ScopePackages names the packages (by package name, so fixture stubs
// qualify) whose functions are checked for mutations. Facts are derived
// everywhere; only reporting is scoped — these are the packages that touch
// v4 index sections or GRDB001 corpus sections.
var ScopePackages = map[string]bool{
	"mmapfile":  true,
	"container": true,
	"vantage":   true,
	"nbtree":    true,
	"ged":       true,
	"nbindex":   true,
	"shard":     true,
	"graph":     true,
	"graphrep":  true,
}

// ThawSites names the sanctioned copy-on-write mutation sites, keyed by
// qualified function name, with the invariant that makes each safe. A
// mutation inside one of these is the thaw mechanism itself, not a bug.
var ThawSites = map[string]string{
	// Every row is sliced with cap==len (FromViewsDeferred clips capacity),
	// so the leading append must reallocate onto the heap before the
	// element writes and copies that follow touch the row.
	"vantage.(*Ordering).Insert": "rows are cap==len views; the leading append reallocates before any element write",
	// Insert calls thaw() first, which copies leafOf (and rebuilds the
	// tree and embeddings) off the mapping before the rebuild writes.
	"nbindex.(*Index).Insert": "thaw() copies leafOf off the mapping before the leaf-map rebuild writes",
}

// Analyzer flags writes, sorts, copies, and in-place appends through slices
// that may alias a read-only mapping.
var Analyzer = &framework.Analyzer{
	Name: "viewmut",
	Doc: "flag in-place mutation of view-backed (mapped, read-only) slices\n\n" +
		"Slices produced by mmapfile.View alias a PROT_READ mapping; the\n" +
		"deferred v4 constructors retain them in struct fields. viewmut\n" +
		"taint-tracks them across packages via ViewSource/AliasesParams/\n" +
		"ViewHolder facts and reports element writes, copies, sorts, and\n" +
		"appends outside the sanctioned copy-on-write thaw sites.",
	Run:       run,
	FactTypes: []framework.Fact{&ViewSource{}, &AliasesParams{}, &ViewHolder{}},
}

func run(pass *framework.Pass) error {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fns = append(fns, fn)
			}
		}
	}
	// Derive facts to a fixpoint: a later function can be the source a
	// previous one retains (and files arrive in name order, not call
	// order), so iterate until no function exports anything new.
	for iter, changed := 0, true; changed && iter < 10; iter++ {
		changed = false
		for _, fn := range fns {
			st := newFnState(pass, fn)
			if st.derive() {
				changed = true
			}
		}
	}
	if !ScopePackages[pass.Pkg.Name()] {
		return nil
	}
	for _, fn := range fns {
		st := newFnState(pass, fn)
		if _, ok := ThawSites[st.qualifiedName()]; ok {
			continue
		}
		st.report()
	}
	return nil
}

// fnState is the per-function taint/alias analysis: which locals are
// view-tainted, which alias which parameters, and which locals hold a
// struct the function built itself.
type fnState struct {
	pass     *framework.Pass
	fn       *ast.FuncDecl
	paramIdx map[types.Object]int
	tainted  map[types.Object]bool
	aliases  map[types.Object]map[int]bool
	built    map[types.Object]bool
}

func newFnState(pass *framework.Pass, fn *ast.FuncDecl) *fnState {
	st := &fnState{
		pass:     pass,
		fn:       fn,
		paramIdx: map[types.Object]int{},
		tainted:  map[types.Object]bool{},
		aliases:  map[types.Object]map[int]bool{},
		built:    map[types.Object]bool{},
	}
	idx := 0
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					st.paramIdx[obj] = idx
				}
				idx++
			}
		}
	}
	st.propagate()
	return st
}

// qualifiedName renders pkg.Fn or pkg.(*Recv).Fn / pkg.Recv.Fn — the
// ThawSites key format.
func (st *fnState) qualifiedName() string {
	pkg := st.pass.Pkg.Name()
	if st.fn.Recv == nil || len(st.fn.Recv.List) == 0 {
		return pkg + "." + st.fn.Name.Name
	}
	recv := st.fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return pkg + ".(*" + id.Name + ")." + st.fn.Name.Name
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		return pkg + "." + id.Name + "." + st.fn.Name.Name
	}
	return pkg + "." + st.fn.Name.Name
}

// propagate runs local taint and alias flow over the body (closures
// included) until stable.
func (st *fnState) propagate() {
	for iter, changed := 0, true; changed && iter < 10; iter++ {
		changed = false
		ast.Inspect(st.fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if st.flowAssign(n) {
					changed = true
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if st.assignTo(name, st.taint(n.Values[i]), st.aliasSet(n.Values[i]), n.Values[i]) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if id, ok := n.Value.(*ast.Ident); ok && st.isSliceOrArray(n.X) {
					if st.assignTo(id, st.taint(n.X), nil, nil) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

func (st *fnState) flowAssign(n *ast.AssignStmt) bool {
	changed := false
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// Tuple assignment: every slice-typed LHS inherits the call's
		// taint (v, err := container.View(...)).
		t := st.taint(n.Rhs[0])
		al := st.aliasSet(n.Rhs[0])
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if st.assignTo(id, t, al, n.Rhs[0]) {
					changed = true
				}
			}
		}
		return changed
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if st.assignTo(id, st.taint(n.Rhs[i]), st.aliasSet(n.Rhs[i]), n.Rhs[i]) {
				changed = true
			}
		}
	}
	return changed
}

// assignTo records taint/alias flow into a local, and whether the local was
// initialized from a composite literal (a builder-owned struct).
func (st *fnState) assignTo(id *ast.Ident, taint bool, aliases map[int]bool, rhs ast.Expr) bool {
	if id.Name == "_" {
		return false
	}
	obj := st.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = st.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return false
	}
	changed := false
	if taint && !st.tainted[obj] {
		st.tainted[obj] = true
		changed = true
	}
	for p := range aliases {
		if st.aliases[obj] == nil {
			st.aliases[obj] = map[int]bool{}
		}
		if !st.aliases[obj][p] {
			st.aliases[obj][p] = true
			changed = true
		}
	}
	if rhs != nil && !st.built[obj] {
		e := rhs
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = u.X
		}
		if _, ok := e.(*ast.CompositeLit); ok {
			if _, isStruct := typeUnder(st.pass.TypesInfo.Types[rhs].Type).(*types.Struct); isStruct || isPtrToStruct(st.pass.TypesInfo.Types[rhs].Type) {
				st.built[obj] = true
				changed = true
			}
		}
	}
	return changed
}

// taint reports whether e may hold view-backed memory.
func (st *fnState) taint(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = st.pass.TypesInfo.Defs[e]
		}
		return obj != nil && st.tainted[obj]
	case *ast.SelectorExpr:
		if f := st.fieldOf(e); f != nil && st.hasHolder(f) {
			return true
		}
		return st.taint(e.X)
	case *ast.IndexExpr:
		return st.taint(e.X)
	case *ast.IndexListExpr:
		return st.taint(e.X)
	case *ast.SliceExpr:
		return st.taint(e.X)
	case *ast.ParenExpr:
		return st.taint(e.X)
	case *ast.StarExpr:
		return st.taint(e.X)
	case *ast.UnaryExpr:
		return st.taint(e.X)
	case *ast.CallExpr:
		return st.callTaint(e)
	}
	return false
}

func (st *fnState) callTaint(call *ast.CallExpr) bool {
	info := st.pass.TypesInfo
	if path, name, ok := framework.QualifiedCall(info, call); ok {
		// The primordial source: the mapping itself.
		if path == "syscall" && name == "Mmap" {
			return true
		}
	}
	// Reinterpreting conversions and unsafe plumbing forward taint.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && st.taint(call.Args[0])
	}
	if fun := unwrapFun(call.Fun); fun != nil {
		if id, ok := fun.(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "append" {
				return len(call.Args) > 0 && st.taint(call.Args[0])
			}
		}
	}
	if path, name, ok := framework.QualifiedCall(info, call); ok && path == "unsafe" && (name == "Slice" || name == "Pointer") {
		for _, a := range call.Args {
			if st.taint(a) {
				return true
			}
		}
		return false
	}
	callee := st.callee(call)
	if callee == nil {
		return false
	}
	if st.pass.HasObjectFact(callee, &ViewSource{}) {
		return true
	}
	var ap AliasesParams
	if st.pass.ImportObjectFact(callee, &ap) {
		for _, p := range ap.Params {
			if p < len(call.Args) && st.taint(call.Args[p]) {
				return true
			}
		}
	}
	return false
}

// aliasSet returns the parameter indices whose memory e may alias.
func (st *fnState) aliasSet(e ast.Expr) map[int]bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = st.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return nil
		}
		if idx, ok := st.paramIdx[obj]; ok {
			return map[int]bool{idx: true}
		}
		return st.aliases[obj]
	case *ast.IndexExpr:
		return st.aliasSet(e.X)
	case *ast.SliceExpr:
		return st.aliasSet(e.X)
	case *ast.ParenExpr:
		return st.aliasSet(e.X)
	case *ast.StarExpr:
		return st.aliasSet(e.X)
	case *ast.UnaryExpr:
		return st.aliasSet(e.X)
	case *ast.CallExpr:
		return st.callAliases(e)
	}
	return nil
}

func (st *fnState) callAliases(call *ast.CallExpr) map[int]bool {
	info := st.pass.TypesInfo
	union := func(exprs ...ast.Expr) map[int]bool {
		var out map[int]bool
		for _, a := range exprs {
			for p := range st.aliasSet(a) {
				if out == nil {
					out = map[int]bool{}
				}
				out[p] = true
			}
		}
		return out
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return union(call.Args...)
	}
	if path, name, ok := framework.QualifiedCall(info, call); ok && path == "unsafe" && (name == "Slice" || name == "Pointer") {
		return union(call.Args...)
	}
	if fun := unwrapFun(call.Fun); fun != nil {
		if id, ok := fun.(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "append" && len(call.Args) > 0 {
				return union(call.Args[0])
			}
		}
	}
	callee := st.callee(call)
	if callee == nil {
		return nil
	}
	var ap AliasesParams
	if st.pass.ImportObjectFact(callee, &ap) {
		var args []ast.Expr
		for _, p := range ap.Params {
			if p < len(call.Args) {
				args = append(args, call.Args[p])
			}
		}
		return union(args...)
	}
	return nil
}

// callee resolves the called function or method object, unwrapping generic
// instantiations.
func (st *fnState) callee(call *ast.CallExpr) types.Object {
	switch fun := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		return st.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return st.pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func unwrapFun(e ast.Expr) ast.Expr {
	for {
		switch f := e.(type) {
		case *ast.ParenExpr:
			e = f.X
		case *ast.IndexExpr:
			e = f.X
		case *ast.IndexListExpr:
			e = f.X
		default:
			return e
		}
	}
}

// fieldOf resolves a selector to the struct field object it reads, if any.
func (st *fnState) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := st.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	// Package-qualified or unselected uses fall back to Uses.
	if v, ok := st.pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

func (st *fnState) hasHolder(f *types.Var) bool {
	return st.pass.HasObjectFact(f, &ViewHolder{})
}

// derive exports facts this function justifies, reporting whether anything
// new was learned.
func (st *fnState) derive() bool {
	changed := false
	info := st.pass.TypesInfo
	// Field retention: assignments and composite literals that store
	// parameter-aliased or tainted values into holder-eligible fields.
	ast.Inspect(st.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) && len(n.Rhs) != 1 {
					break
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) > i {
					rhs = n.Rhs[i]
				}
				if f := st.retainTarget(lhs); f != nil && st.retains(rhs) {
					if st.exportHolder(f) {
						changed = true
					}
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			if _, isStruct := typeUnder(tv.Type).(*types.Struct); !isStruct {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				f, ok := info.Uses[key].(*types.Var)
				if !ok || !f.IsField() {
					continue
				}
				if st.retains(kv.Value) && st.exportHolder(f) {
					changed = true
				}
			}
		}
		return true
	})
	// Return flow: a tainted result makes the function a ViewSource; a
	// parameter-aliased result records AliasesParams. Only the function's
	// own returns count — closures return to their own callers.
	fnObj := info.Defs[st.fn.Name]
	if fnObj == nil {
		return changed
	}
	aliased := map[int]bool{}
	source := false
	ast.Inspect(st.fn.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !st.isSliceOrArray(res) {
				continue
			}
			if st.taint(res) {
				source = true
			}
			for p := range st.aliasSet(res) {
				aliased[p] = true
			}
		}
		return true
	})
	if source && !st.pass.HasObjectFact(fnObj, &ViewSource{}) {
		st.pass.ExportObjectFact(fnObj, &ViewSource{})
		changed = true
	}
	if len(aliased) > 0 {
		var old AliasesParams
		st.pass.ImportObjectFact(fnObj, &old)
		merged := map[int]bool{}
		for _, p := range old.Params {
			merged[p] = true
		}
		for p := range aliased {
			merged[p] = true
		}
		if len(merged) > len(old.Params) {
			ps := make([]int, 0, len(merged))
			for p := range merged {
				ps = append(ps, p)
			}
			sort.Ints(ps)
			st.pass.ExportObjectFact(fnObj, &AliasesParams{Params: ps})
			changed = true
		}
	}
	return changed
}

// retainTarget resolves an assignment LHS of the form x.f or x.f[i] to the
// field being written into, for retention purposes.
func (st *fnState) retainTarget(lhs ast.Expr) *types.Var {
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		lhs = ix.X
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return st.fieldOf(sel)
}

// retains reports whether storing e into a field constitutes retention of
// possibly-mapped memory: e is tainted or aliases a parameter.
func (st *fnState) retains(e ast.Expr) bool {
	if !st.isSliceOrArray(e) {
		return false
	}
	return st.taint(e) || len(st.aliasSet(e)) > 0
}

func (st *fnState) exportHolder(f *types.Var) bool {
	if f.Pkg() != st.pass.Pkg || !holderEligible(f.Type()) {
		return false
	}
	if st.pass.HasObjectFact(f, &ViewHolder{}) {
		return false
	}
	st.pass.ExportObjectFact(f, &ViewHolder{})
	return true
}

// report sweeps the body for mutations of tainted slices.
func (st *fnState) report() {
	info := st.pass.TypesInfo
	ast.Inspect(st.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if st.mutable(ix.X) {
					st.pass.Reportf(lhs.Pos(), "write into view-backed slice %s; it may alias the read-only mapping — thaw (copy) before mutating", types.ExprString(ix.X))
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && st.mutable(ix.X) {
				st.pass.Reportf(n.Pos(), "write into view-backed slice %s; it may alias the read-only mapping — thaw (copy) before mutating", types.ExprString(ix.X))
			}
		case *ast.CallExpr:
			st.reportCall(n, info)
		}
		return true
	})
}

func (st *fnState) reportCall(call *ast.CallExpr, info *types.Info) {
	if fun := unwrapFun(call.Fun); fun != nil {
		if id, ok := fun.(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && len(call.Args) > 0 {
				switch b.Name() {
				case "append":
					if st.mutable(call.Args[0]) {
						st.pass.Reportf(call.Pos(), "append to view-backed slice %s outside a sanctioned thaw site; copy it off the mapping first", types.ExprString(call.Args[0]))
					}
				case "copy":
					if st.mutable(call.Args[0]) {
						st.pass.Reportf(call.Pos(), "copy into view-backed slice %s; it may alias the read-only mapping — thaw before mutating", types.ExprString(call.Args[0]))
					}
				}
				return
			}
		}
	}
	path, name, ok := framework.QualifiedCall(info, call)
	if !ok || len(call.Args) == 0 {
		return
	}
	inPlaceSort := (path == "sort" && (name == "Slice" || name == "SliceStable" || name == "Ints" ||
		name == "Float64s" || name == "Strings")) ||
		(path == "slices" && strings.HasPrefix(name, "Sort")) ||
		(path == "slices" && name == "Reverse")
	if inPlaceSort && st.mutable(call.Args[0]) {
		st.pass.Reportf(call.Pos(), "in-place sort of view-backed slice %s; it may alias the read-only mapping — sort a copy", types.ExprString(call.Args[0]))
	}
}

// mutable reports whether writing through e is a violation: e is a tainted
// slice (not a map) and is not rooted in a struct this function built.
func (st *fnState) mutable(e ast.Expr) bool {
	if !st.isSliceOrArray(e) {
		return false
	}
	return st.taint(e) && !st.builderRooted(e)
}

func (st *fnState) isSliceOrArray(e ast.Expr) bool {
	tv, ok := st.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch typeUnder(tv.Type).(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// builderRooted reports whether e reaches its memory through a struct the
// function created itself (composite literal) — initializing a fresh heap
// allocation is not a mutation of mapped memory.
func (st *fnState) builderRooted(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			obj := st.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = st.pass.TypesInfo.Defs[x]
			}
			return obj != nil && st.built[obj]
		default:
			return false
		}
	}
}

// holderEligible restricts ViewHolder to field types a mapped section could
// actually back: slices of fixed-stride scalars, nested slices of them
// (row-sliced matrices), and maps whose values are such slices (section
// directories).
func holderEligible(t types.Type) bool {
	switch u := typeUnder(t).(type) {
	case *types.Slice:
		return scalarElem(u.Elem())
	case *types.Map:
		if s, ok := typeUnder(u.Elem()).(*types.Slice); ok {
			return scalarElem(s.Elem())
		}
	}
	return false
}

func scalarElem(t types.Type) bool {
	switch u := typeUnder(t).(type) {
	case *types.Basic:
		return u.Info()&(types.IsNumeric|types.IsBoolean) != 0
	case *types.Slice:
		return scalarElem(u.Elem())
	}
	return false
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem().Underlying()
	}
	return t.Underlying()
}

func isPtrToStruct(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	_, ok = ptr.Elem().Underlying().(*types.Struct)
	return ok
}
