// Package inertsafety machine-checks the jump-safety argument of
// DESIGN.md §12: a callback scheduled inert (des.Scheduler.ScheduleInert
// / AtInert) does not hold the kernel's active count, so a peer may
// bulk-jump the clock across its due time. That is only sound when the
// inert callback cannot change what the active path observes — its
// shared write set must be disjoint from the shared read set of every
// active-scheduled callback.
//
// The analyzer finds every scheduler call site (including dual-mode
// wrappers, which forward a callback parameter to both an inert and an
// active scheduler method), resolves callbacks through method values,
// function literals, and pre-bound struct fields (n.fn = n.method), and
// intersects effect summaries from the desaflow layer. Where the
// intersection is intentional — the write provably cannot alter
// active-path behavior for a deeper reason than the analyzer can see —
// the callback's doc comment carries //desalint:inertsafe <reason>, and
// an annotation on a callback that is never scheduled inert is itself
// reported so the escape hatch cannot rot.
package inertsafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/framework"
)

// Analyzer is the inert-callback interference check.
var Analyzer = &framework.Analyzer{
	Name:    "inertsafety",
	Doc:     "inert-scheduled callbacks must not write state the active event path reads (//desalint:inertsafe <reason> to override)",
	SimOnly: true,
	Run:     run,
}

// schedulerTypeName is the named type whose methods are treated as
// scheduler entry points, wherever it is imported from.
const schedulerTypeName = "Scheduler"

var (
	activeFuncMethods  = map[string]bool{"Schedule": true, "At": true}
	activeEventMethods = map[string]bool{"ScheduleEvent": true, "AtEvent": true}
	inertFuncMethods   = map[string]bool{"ScheduleInert": true, "AtInert": true}
)

// target is one resolved callback: a declared function/method or a
// function literal.
type target struct {
	fn  *types.Func  // nil for literals
	lit *ast.FuncLit // nil for declared functions
}

// site is one callback scheduling site.
type site struct {
	pos      token.Pos // of the scheduling call
	callback ast.Expr
	inert    bool
}

type checker struct {
	pass *framework.Pass
	pkg  *framework.Package

	decls   map[*types.Func]*ast.FuncDecl
	assigns map[types.Object][]ast.Expr // var/field -> every RHS assigned to it

	// wrappers maps a function with a func-typed parameter that it
	// forwards to a scheduler method, to that parameter's index and the
	// scheduling kinds it can take.
	wrappers map[*types.Func]*wrapperInfo

	// readersOf attributes each shared location to the active callbacks
	// reading it.
	readersOf map[framework.Loc][]target
}

type wrapperInfo struct {
	paramIdx int
	inert    bool
	active   bool
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:     pass,
		pkg:      pass.Pkg,
		decls:    make(map[*types.Func]*ast.FuncDecl),
		assigns:  make(map[types.Object][]ast.Expr),
		wrappers: make(map[*types.Func]*wrapperInfo),
	}
	c.index()
	c.findWrappers()
	sites := c.collectSites()

	// Active read set, attributed to the contributing callback so a
	// callback is never in conflict with only itself (the non-FF branch
	// of a dual-mode wrapper schedules the same function active).
	c.readersOf = map[framework.Loc][]target{}
	inertSites := []site{}
	for _, s := range sites {
		if s.inert {
			inertSites = append(inertSites, s)
			continue
		}
		for _, tg := range c.resolve(s.callback, nil) {
			eff := c.targetEffects(tg)
			for loc := range eff.Reads {
				if loc.Shared() {
					c.readersOf[loc] = append(c.readersOf[loc], tg)
				}
			}
		}
	}
	// Every Fire method in the package is an active event body (events
	// always hold the active count).
	for fn, fd := range c.decls {
		if fn.Name() == "Fire" && fd.Recv != nil {
			tg := target{fn: fn}
			for loc := range c.targetEffects(tg).Reads {
				if loc.Shared() {
					c.readersOf[loc] = append(c.readersOf[loc], tg)
				}
			}
		}
	}

	inertTargets := map[*types.Func]bool{}
	for _, s := range inertSites {
		for _, tg := range c.resolve(s.callback, nil) {
			if tg.fn != nil {
				inertTargets[tg.fn] = true
			}
			c.checkInert(s, tg)
		}
	}

	// The escape hatch must not rot: an inertsafe annotation on a
	// function that is never scheduled inert is dead and reported.
	// (Diagnostics anchor on the declaration, not the comment, so they
	// stay distinguishable from the annotation line itself.)
	for fn, fd := range c.decls {
		a, ok := c.pkg.FuncAnnotation(fd, "inertsafe")
		if !ok {
			continue
		}
		if a.Arg == "" {
			c.pass.Reportf(fd.Pos(), "//desalint:inertsafe needs a reason")
		}
		if !inertTargets[fn] {
			c.pass.Reportf(fd.Pos(), "unused //desalint:inertsafe annotation: %s is never scheduled inert", fn.Name())
		}
	}
	return nil
}

// checkInert verifies one inert-scheduled target against the active
// read set, honoring the inertsafe annotation.
func (c *checker) checkInert(s site, tg target) {
	name := c.targetName(tg)
	if tg.fn != nil {
		if fd := c.decls[tg.fn]; fd != nil {
			if _, ok := c.pkg.FuncAnnotation(fd, "inertsafe"); ok {
				return
			}
		}
	} else if tg.lit != nil {
		if a, ok := c.pkg.AnnotationAt(tg.lit.Pos()); ok && a.Verb == "inertsafe" {
			if a.Arg == "" {
				c.pass.Reportf(tg.lit.Pos(), "//desalint:inertsafe needs a reason")
			}
			return
		}
	}
	eff := c.targetEffects(tg)

	type conflict struct {
		loc    framework.Loc
		reader string
	}
	var conflicts []conflict
	for _, loc := range framework.SortedLocs(eff.Writes) {
		if !loc.Shared() {
			continue
		}
		for _, reader := range c.activeReaders(loc, tg) {
			conflicts = append(conflicts, conflict{loc, reader})
			break
		}
	}
	if len(conflicts) == 0 {
		return
	}
	first := conflicts[0]
	c.pass.Reportf(s.pos,
		"inert callback %s writes %s, which active callback %s reads; a bulk jump may skip the write or observe stale state (annotate the callback with //desalint:inertsafe <reason> if this is provably benign)",
		name, first.loc, first.reader)
}

// activeReaders returns the names of active callbacks other than tg
// that read loc.
func (c *checker) activeReaders(loc framework.Loc, tg target) []string {
	readers := c.readersOf[loc]
	var out []string
	for _, r := range readers {
		if r.fn != nil && tg.fn != nil && r.fn == tg.fn {
			continue
		}
		if r.lit != nil && tg.lit != nil && r.lit == tg.lit {
			continue
		}
		out = append(out, c.targetName(r))
	}
	sort.Strings(out)
	return out
}

func (c *checker) targetName(tg target) string {
	if tg.fn != nil {
		return tg.fn.Name()
	}
	return "func literal"
}

// targetEffects computes the one-level summarized effects of a target.
func (c *checker) targetEffects(tg target) *framework.Effects {
	if tg.fn != nil {
		return framework.SummarizedEffects(c.pkg, tg.fn)
	}
	direct := framework.EffectsOf(c.pkg, tg.lit.Body)
	eff := framework.NewEffects()
	eff.MergeShared(direct)
	sums := framework.Summaries(c.pkg)
	for callee := range direct.Callees {
		if cs := sums[callee]; cs != nil {
			eff.MergeShared(cs)
		}
	}
	return eff
}

// index builds the declaration and assignment maps used for callback
// resolution: n.fooFn = n.foo (field pre-binding), refresh := func(){}
// (local closures), and package-level var bindings.
func (c *checker) index() {
	for _, f := range c.pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := c.pkg.Info.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if obj := c.lvalueObject(lhs); obj != nil {
						c.assigns[obj] = append(c.assigns[obj], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if obj := c.pkg.Info.Defs[name]; obj != nil {
							c.assigns[obj] = append(c.assigns[obj], n.Values[i])
						}
					}
				}
			case *ast.KeyValueExpr:
				// Struct literal field binding: Node{fn: callback}.
				if id, ok := n.Key.(*ast.Ident); ok {
					if obj := c.pkg.Info.Uses[id]; obj != nil {
						c.assigns[obj] = append(c.assigns[obj], n.Value)
					}
				}
			}
			return true
		})
	}
}

// lvalueObject resolves an assignment target to the variable or field
// object it denotes.
func (c *checker) lvalueObject(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		return c.pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return c.pkg.Info.Uses[e.Sel]
	}
	return nil
}

// findWrappers detects functions that forward a func-typed parameter to
// a direct scheduler call (the inertfix fixture's scheduleIdle), noting
// which scheduling kinds the parameter can reach.
func (c *checker) findWrappers() {
	for fn, fd := range c.decls {
		if fd.Body == nil {
			continue
		}
		params := paramObjects(c.pkg, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, cb := c.directSite(call)
			if kind == notScheduler || cb == nil {
				return true
			}
			id, ok := ast.Unparen(cb).(*ast.Ident)
			if !ok {
				return true
			}
			obj := c.pkg.Info.Uses[id]
			for idx, p := range params {
				if obj == p {
					w := c.wrappers[fn]
					if w == nil {
						w = &wrapperInfo{paramIdx: idx}
						c.wrappers[fn] = w
					}
					if kind == inertKind {
						w.inert = true
					} else {
						w.active = true
					}
				}
			}
			return true
		})
	}
}

func paramObjects(pkg *framework.Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, pkg.Info.Defs[name])
		}
	}
	return out
}

type siteKind int

const (
	notScheduler siteKind = iota
	activeKind
	inertKind
	activeEventKind
)

// directSite classifies a call as a direct scheduler method call and
// returns the callback (or event) argument.
func (c *checker) directSite(call *ast.CallExpr) (siteKind, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return notScheduler, nil
	}
	s, ok := c.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		// Package-qualified call, not a method: not a scheduler site.
		return notScheduler, nil
	}
	if !isSchedulerType(s.Recv()) {
		return notScheduler, nil
	}
	name := sel.Sel.Name
	if len(call.Args) < 2 {
		return notScheduler, nil
	}
	switch {
	case activeFuncMethods[name]:
		return activeKind, call.Args[1]
	case inertFuncMethods[name]:
		return inertKind, call.Args[1]
	case activeEventMethods[name]:
		return activeEventKind, call.Args[1]
	}
	return notScheduler, nil
}

func isSchedulerType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == schedulerTypeName
}

// collectSites gathers every scheduling site in the package: direct
// scheduler calls and calls through detected wrappers. Event sites
// resolve the event argument's Fire method as the active callback, but
// since all Fire methods are already folded into the active set, the
// site itself needs no further handling.
func (c *checker) collectSites() []site {
	var sites []site
	for _, fd := range c.decls {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, cb := c.directSite(call)
			switch kind {
			case activeKind:
				sites = append(sites, site{pos: call.Pos(), callback: cb, inert: false})
				return true
			case inertKind:
				sites = append(sites, site{pos: call.Pos(), callback: cb, inert: true})
				return true
			case activeEventKind:
				return true
			}
			// Wrapper call?
			if wfn := c.calledFunc(call); wfn != nil {
				if w := c.wrappers[wfn]; w != nil && w.paramIdx < len(call.Args) {
					cb := call.Args[w.paramIdx]
					if w.inert {
						sites = append(sites, site{pos: call.Pos(), callback: cb, inert: true})
					}
					if w.active {
						sites = append(sites, site{pos: call.Pos(), callback: cb, inert: false})
					}
				}
			}
			return true
		})
	}
	return sites
}

// calledFunc resolves the statically called same-package function, if
// any.
func (c *checker) calledFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// resolve maps a callback expression to the function(s) it may invoke:
// function literals, named functions, method values, and variables or
// struct fields bound to any of those elsewhere in the package
// (pre-bound callback fields). Parameters and cross-package values
// resolve to nothing and are skipped — the annotation grammar covers
// what resolution cannot see.
func (c *checker) resolve(e ast.Expr, seen map[types.Object]bool) []target {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return []target{{lit: e}}
	case *ast.Ident:
		return c.resolveObject(identObject(c.pkg, e), seen)
	case *ast.SelectorExpr:
		if s, ok := c.pkg.Info.Selections[e]; ok && s.Kind() == types.MethodVal {
			if fn, ok := c.pkg.Info.Uses[e.Sel].(*types.Func); ok {
				return []target{{fn: fn}}
			}
		}
		return c.resolveObject(c.pkg.Info.Uses[e.Sel], seen)
	}
	return nil
}

func identObject(pkg *framework.Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

func (c *checker) resolveObject(obj types.Object, seen map[types.Object]bool) []target {
	switch obj := obj.(type) {
	case *types.Func:
		return []target{{fn: obj}}
	case *types.Var:
		if seen == nil {
			seen = map[types.Object]bool{}
		}
		if seen[obj] {
			return nil
		}
		seen[obj] = true
		var out []target
		for _, rhs := range c.assigns[obj] {
			out = append(out, c.resolve(rhs, seen)...)
		}
		return out
	}
	return nil
}
