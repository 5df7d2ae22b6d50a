package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport keeps the module free of code nothing runs: every
// package-level func, type, var or const under <module>/internal/ must
// be referenced by some loaded non-test file. Test-only helpers belong
// in _test.go files, and a declaration whose only users are tests is a
// maintenance cost with no program behind it.
//
// A reference inside the declaration itself does not count, and neither
// does a method receiver naming the type, so recursion-only helpers and
// types used only by their own methods are reported. An instantiated
// generic function counts as a use of it: go/types records the generic
// object itself in Info.Uses for an instantiated call. Methods are
// out of scope: interface dispatch and the root package's type aliases
// make an unreferenced method ambiguous.
//
// The rule needs every caller in view, so it reports only when the
// module's root package is among the loaded packages; a subtree run
// such as `epvet ./internal/stats/` reports nothing. Deliberate keepers
// carry a //lint:ignore deadexport directive with the reason.
type DeadExport struct{}

func (DeadExport) Name() string { return "deadexport" }

func (DeadExport) Doc() string {
	return "every package-level declaration under internal/ is referenced by non-test code outside itself"
}

func (DeadExport) Check(pkg *Package) []Finding { return nil }

// declSpan is one candidate declaration: its defining identifier and the
// source range whose references to it do not count.
type declSpan struct {
	pkg      *Package
	name     *ast.Ident
	pos, end token.Pos
}

func (DeadExport) CheckProgram(prog *Program) []Finding {
	loaded := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		loaded[pkg.Path] = true
	}
	cands := map[types.Object]declSpan{}
	var order []types.Object
	for _, pkg := range prog.Pkgs {
		i := strings.Index(pkg.Path, "/internal/")
		if i < 0 || !loaded[pkg.Path[:i]] {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				for _, c := range declSpans(pkg, decl) {
					if obj := pkg.Info.Defs[c.name]; obj != nil {
						cands[obj] = c
						order = append(order, obj)
					}
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}

	used := map[types.Object]bool{}
	for _, pkg := range prog.Pkgs {
		receivers := receiverIdents(pkg)
		for id, obj := range pkg.Info.Uses {
			c, ok := cands[obj]
			if !ok || used[obj] || receivers[id] {
				continue
			}
			if c.pkg == pkg && id.Pos() >= c.pos && id.Pos() < c.end {
				continue
			}
			used[obj] = true
		}
	}

	var out []Finding
	for _, obj := range order {
		if !used[obj] {
			c := cands[obj]
			out = append(out, c.pkg.findingf(c.name, "deadexport",
				"%s.%s is referenced by no non-test code outside its own declaration", obj.Pkg().Name(), obj.Name()))
		}
	}
	return out
}

// declSpans returns the package-level funcs, types, vars and consts a
// declaration introduces. Methods, init and blank names are skipped.
func declSpans(pkg *Package, decl ast.Decl) []declSpan {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil || d.Name.Name == "init" || d.Name.Name == "_" {
			return nil
		}
		return []declSpan{{pkg, d.Name, d.Pos(), d.End()}}
	case *ast.GenDecl:
		var out []declSpan
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, declSpan{pkg, s.Name, s.Pos(), s.End()})
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.Name != "_" {
						out = append(out, declSpan{pkg, name, s.Pos(), s.End()})
					}
				}
			}
		}
		return out
	}
	return nil
}

// receiverIdents returns the identifiers inside the package's method
// receivers, whose mention of the type is not a use of it.
func receiverIdents(pkg *Package) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						out[id] = true
					}
					return true
				})
			}
		}
	}
	return out
}
