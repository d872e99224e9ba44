// The sortedout analyzer: the second way map iteration order leaks into
// output — positional writes. Where rangemap catches `out = append(out, ...)`
// inside a `range m` loop, this check also catches the index-assignment
// variant:
//
//	i := 0
//	for k := range m {
//	    out[i] = k // slot order = map order
//	    i++
//	}
//	return out
//
// Writing out[k] keyed by the map key itself is deterministic (each key owns
// its slot, so visit order cannot matter) and is not flagged; only an index
// that advances inside the loop — a counter — encodes the visit order.
// Appends to returned slices are flagged exactly like rangemap, so this
// analyzer stands alone for the packages it gates.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// SortedOut is the positional-write determinism analyzer. Its gate covers
// the region-inference stack, whose slice outputs order calc chains and
// golden region reports.
var SortedOut = &Analyzer{
	Name:        "sortedout",
	Doc:         "map iteration order must not pick slice slots or grow returned slices",
	DefaultDirs: []string{"internal/regions", "internal/graph", "internal/analyze", "internal/plan", "internal/obs", "internal/perfbase"},
	Run: func(pkg *Package) []Diagnostic {
		mapFields := collectMapFields(pkg.Files)
		var diags []Diagnostic
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				diags = append(diags, checkSortedOut(pkg, fd, mapFields)...)
			}
		}
		return sortDiags(diags)
	},
}

// checkSortedOut analyzes one function body.
func checkSortedOut(pkg *Package, fd *ast.FuncDecl, mapFields map[string]bool) []Diagnostic {
	mapVars := collectMapVars(fd)
	sliceVars := collectSliceVars(fd)
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
		counters := loopCounters(rs.Body)
		for _, w := range indexedWrites(rs.Body) {
			if !sliceVars[w.slice] || !returned[w.slice] || !counters[w.index] {
				continue
			}
			if sortedAfter(fd.Body, rs.End(), w.slice) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: pkg.Fset.Position(rs.Pos()).String(),
				Message: fmt.Sprintf(
					"map iteration order picks the slots of returned slice %q via counter %q; sort or iterate deterministically",
					w.slice, w.index),
			})
		}
		for _, target := range appendTargets(rs.Body) {
			if !returned[target] {
				continue
			}
			if sortedAfter(fd.Body, rs.End(), target) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: pkg.Fset.Position(rs.Pos()).String(),
				Message: fmt.Sprintf(
					"map iteration order leaks into returned slice %q; sort it before returning (or collect deterministically)",
					target),
			})
		}
		return true
	})
	return diags
}

// indexedWrite is one `slice[index] = ...` statement with identifier
// operands.
type indexedWrite struct {
	slice, index string
}

// indexedWrites returns the positional writes of a loop body.
func indexedWrites(body *ast.BlockStmt) []indexedWrite {
	var out []indexedWrite
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				continue
			}
			s, ok := ix.X.(*ast.Ident)
			if !ok {
				continue
			}
			i, ok := ix.Index.(*ast.Ident)
			if !ok {
				continue
			}
			out = append(out, indexedWrite{slice: s.Name, index: i.Name})
		}
		return true
	})
	return out
}

// loopCounters returns identifiers the loop body advances (i++, i--,
// i += x, i = i + 1): indices whose value encodes the visit order.
func loopCounters(body *ast.BlockStmt) map[string]bool {
	counters := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.IncDecStmt:
			if id, ok := t.X.(*ast.Ident); ok {
				counters[id.Name] = true
			}
		case *ast.AssignStmt:
			switch t.Tok {
			case token.DEFINE:
				// A := variable is fresh each iteration; it carries no
				// cross-iteration state and cannot encode visit order.
			case token.ASSIGN:
				// Plain assignment counts only when self-referential
				// (i = i + 1); i = f(k) derives from the key, not the order.
				for i, lhs := range t.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(t.Rhs) {
						continue
					}
					if mentionsIdent(t.Rhs[i], id.Name) {
						counters[id.Name] = true
					}
				}
			default:
				// Compound assignment (+=, <<=, ...) always advances.
				for _, lhs := range t.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						counters[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return counters
}

// collectSliceVars finds identifiers the function binds to slice-typed
// values, mirroring collectMapVars' syntactic resolution.
func collectSliceVars(fd *ast.FuncDecl) map[string]bool {
	vars := make(map[string]bool)
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if _, isSlice := f.Type.(*ast.ArrayType); !isSlice {
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
				return true
			}
			for i, lhs := range t.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isSliceValue(t.Rhs[i]) {
					vars[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if _, isSlice := t.Type.(*ast.ArrayType); isSlice {
				for _, name := range t.Names {
					vars[name.Name] = true
				}
			}
			for i, name := range t.Names {
				if i < len(t.Values) && isSliceValue(t.Values[i]) {
					vars[name.Name] = true
				}
			}
		}
		return true
	})
	return vars
}

// isSliceValue reports whether an expression syntactically produces a
// slice: make([]T, ...), a slice composite literal, or append(...).
func isSliceValue(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.CallExpr:
		if id, ok := t.Fun.(*ast.Ident); ok {
			if id.Name == "make" && len(t.Args) > 0 {
				_, isSlice := t.Args[0].(*ast.ArrayType)
				return isSlice
			}
			return id.Name == "append"
		}
	case *ast.CompositeLit:
		_, isSlice := t.Type.(*ast.ArrayType)
		return isSlice
	}
	return false
}
