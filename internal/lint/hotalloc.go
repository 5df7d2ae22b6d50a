package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc enforces PR 4's zero-alloc discipline structurally instead of
// statistically: the benchmarks prove the blessed hot paths are
// allocation-free today, this rule keeps them that way tomorrow. Any
// function transitively reachable from a `//lint:root hotalloc` mark
// (the GEMM/FFT kernels, memo.Digest, the cpusim execution engine, the
// gpusim traced-schedule sort and merge, the stats measurement step)
// may not
// append, make, call into fmt, or create a variable-capturing closure —
// each of those is a heap allocation on the per-point hot loop once
// escape analysis gives up.
//
// The blessed roots are an explicit, reviewable set: adding a root is a
// diff on the kernel's doc comment, not a lint-config change. One
// structural exemption keeps error exits ergonomic: a fmt call inside a
// return statement is the failure path leaving the hot loop, not the
// steady state, so it is allowed.
type HotAlloc struct{}

func (HotAlloc) Name() string { return "hotalloc" }

func (HotAlloc) Doc() string {
	return "no append/make/fmt/capturing-closure allocations reachable from //lint:root hotalloc hot paths (GEMM/FFT kernels, memo.Digest, cpusim.runThreads, gpusim schedule occupancy, stats measureState.step)"
}

func (HotAlloc) Check(pkg *Package) []Finding { return nil }

func (HotAlloc) CheckProgram(prog *Program) []Finding {
	roots := prog.RootNodes("hotalloc")
	if len(roots) == 0 {
		return nil
	}
	reach := prog.Graph.Reach(roots)
	var out []Finding
	for _, n := range prog.Graph.Nodes {
		if !reach.Has(n) {
			continue
		}
		out = append(out, checkHotBody(n, reach)...)
	}
	return out
}

func checkHotBody(n *Node, reach *Reach) []Finding {
	pkg := n.Pkg
	path := reach.Path(n)
	var out []Finding
	report := func(at ast.Node, format string, args ...any) {
		f := pkg.findingf(at, "hotalloc", format, args...)
		f.Msg += " [hot path: " + path + "]"
		out = append(out, f)
	}
	walkNodeBody(n.Body, func(nd ast.Node, stack []ast.Node) {
		switch x := nd.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					switch b.Name() {
					case "append":
						report(x, "append on a hot path allocates when it grows; size the buffer up front or use pooled scratch")
					case "make":
						report(x, "make on a hot path allocates per call; hoist it out of the kernel or use pooled scratch")
					}
					return
				}
			}
			if name, ok := pkgCall(pkg.Info, x, "fmt"); ok && !insideReturn(stack) {
				report(x, "fmt.%s on a hot path allocates its result and boxes its arguments; only error-return exits may format", name)
			}
		case *ast.FuncLit:
			// walkNodeBody prunes literal bodies, but the creation site
			// itself is in this node: a literal that captures locals
			// allocates a closure object per creation.
			if caps := litCaptures(pkg, x); len(caps) > 0 {
				report(x, "closure capturing %s on a hot path allocates per creation; pass values as parameters or hoist the closure", strings.Join(caps, ", "))
			}
		}
	})
	return out
}

// litCaptures lists the local variables the literal captures from its
// enclosing function: identifiers resolving to non-field variables
// declared outside the literal's extent (package-level state is shared,
// not captured).
func litCaptures(pkg *Package, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPackageLevelVar(v) {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own params and locals
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}

// insideReturn reports whether the ancestor stack contains a return
// statement — the error-exit carve-out for fmt on hot paths.
func insideReturn(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}
