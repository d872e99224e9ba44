// The rangemap analyzer: the classic way Go code loses determinism is
// iterating a map and letting the iteration order leak into a returned
// slice.
//
// The check flags any `for ... range m` over a map-typed expression whose
// body appends to a slice that the enclosing function returns, unless a
// later statement in the same function passes that slice to something
// sort-like (a call whose qualified name contains "sort" — sort.Slice,
// sort.Strings, (*Graph).sortAddrs, ...).
//
// Type resolution is syntactic: a variable is map-typed if it is declared
// with a map type, assigned from make(map...) or a map literal, received as
// a map-typed parameter or result, or is a selector naming a map-typed
// struct field declared in the package. That resolves every map in this
// repository.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// RangeMap is the determinism analyzer. Its default gate covers the
// packages whose slice output feeds golden files and calc chains.
var RangeMap = &Analyzer{
	Name:        "rangemap",
	Doc:         "map iteration order must not leak into returned slices",
	DefaultDirs: []string{"internal/graph", "internal/analyze", "internal/absint", "internal/typecheck", "internal/plan", "internal/obs", "internal/perfbase"},
	Run: func(pkg *Package) []Diagnostic {
		return CheckFiles(pkg.Fset, pkg.Files)
	},
}

// CheckDir parses every non-test .go file of one package directory and
// returns the rangemap findings, sorted by position.
func CheckDir(dir string) ([]Diagnostic, error) {
	return RangeMap.RunDir(dir)
}

// CheckFiles runs the check over already-parsed files of one package.
func CheckFiles(fset *token.FileSet, files []*ast.File) []Diagnostic {
	mapFields := collectMapFields(files)
	var diags []Diagnostic
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, checkFunc(fset, fd, mapFields)...)
		}
	}
	return sortDiags(diags)
}

// collectMapFields gathers the names of map-typed struct fields declared
// anywhere in the package, so `recv.field` selectors resolve.
func collectMapFields(files []*ast.File) map[string]bool {
	fields := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				if _, isMap := fl.Type.(*ast.MapType); !isMap {
					continue
				}
				for _, name := range fl.Names {
					fields[name.Name] = true
				}
			}
			return true
		})
	}
	return fields
}

// checkFunc analyzes one function body.
func checkFunc(fset *token.FileSet, fd *ast.FuncDecl, mapFields map[string]bool) []Diagnostic {
	mapVars := collectMapVars(fd)
	returned := collectReturnedSlices(fd)

	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapExpr(rs.X, mapVars, mapFields) {
			return true
		}
		for _, target := range appendTargets(rs.Body) {
			if !returned[target] {
				continue
			}
			if sortedAfter(fd.Body, rs.End(), target) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: fset.Position(rs.Pos()).String(),
				Message: fmt.Sprintf(
					"map iteration order leaks into returned slice %q; sort it before returning (or collect deterministically)",
					target),
			})
		}
		return true
	})
	return diags
}

// collectMapVars finds identifiers the function body (or signature) binds
// to map-typed values.
func collectMapVars(fd *ast.FuncDecl) map[string]bool {
	vars := make(map[string]bool)
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if _, isMap := f.Type.(*ast.MapType); !isMap {
				continue
			}
			for _, name := range f.Names {
				vars[name.Name] = true
			}
		}
	}
	addFieldList(fd.Type.Params)
	addFieldList(fd.Type.Results)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if len(t.Lhs) != len(t.Rhs) {
				return true // multi-value call assignment: never a map literal
			}
			for i, lhs := range t.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isMapValue(t.Rhs[i]) {
					vars[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if _, isMap := t.Type.(*ast.MapType); isMap {
				for _, name := range t.Names {
					vars[name.Name] = true
				}
			}
			for i, name := range t.Names {
				if i < len(t.Values) && isMapValue(t.Values[i]) {
					vars[name.Name] = true
				}
			}
		}
		return true
	})
	return vars
}

// isMapValue reports whether an expression syntactically produces a map:
// make(map[...]...) or a map composite literal.
func isMapValue(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.CallExpr:
		if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "make" && len(t.Args) > 0 {
			_, isMap := t.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.CompositeLit:
		_, isMap := t.Type.(*ast.MapType)
		return isMap
	}
	return false
}

// isMapExpr reports whether a range operand is map-typed under the
// syntactic resolver.
func isMapExpr(e ast.Expr, mapVars, mapFields map[string]bool) bool {
	switch t := e.(type) {
	case *ast.Ident:
		return mapVars[t.Name]
	case *ast.SelectorExpr:
		return mapFields[t.Sel.Name]
	default:
		return isMapValue(e)
	}
}

// appendTargets returns the names of variables the block grows via
// `x = append(x, ...)`.
func appendTargets(body *ast.BlockStmt) []string {
	seen := make(map[string]bool)
	var targets []string
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
			return true
		}
		if !seen[lhs.Name] {
			seen[lhs.Name] = true
			targets = append(targets, lhs.Name)
		}
		return true
	})
	sort.Strings(targets)
	return targets
}

// collectReturnedSlices returns the set of identifiers the function hands
// to its caller: named results plus any identifier appearing as a return
// operand.
func collectReturnedSlices(fd *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				out[name.Name] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			if id, ok := e.(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// sortedAfter reports whether, lexically after pos, the function calls
// something sort-like with the named variable involved — the idiom that
// restores determinism after a map-order collect.
func sortedAfter(body *ast.BlockStmt, pos token.Pos, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !strings.Contains(strings.ToLower(calleeName(call)), "sort") {
			return true
		}
		if mentionsIdent(call, name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeName renders a call's function expression as a dotted name
// ("sort.Slice", "g.sortAddrs", "sortAddrs"); empty for exotic callees.
func calleeName(call *ast.CallExpr) string {
	switch t := call.Fun.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return x.Name + "." + t.Sel.Name
		}
		return t.Sel.Name
	}
	return ""
}

// mentionsIdent reports whether the subtree references the identifier.
func mentionsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}
