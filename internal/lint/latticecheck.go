// The latticecheck analyzer: abstract-domain dispatch must be exhaustive
// by construction. The abstract interpreter (internal/absint) and its
// kind/error domain (internal/typecheck) promise over-approximation —
// every concrete value a formula can produce must be admitted by the
// inferred abstract value. That promise breaks silently when a switch over a domain
// discriminant has no default clause: adding an AST node kind, an
// operator, a builtin, or a value kind later makes the old switch fall
// through and the function return its zero value, which in a lattice is
// usually BOTTOM — an unsound "impossible" claim — instead of the sound
// top element.
//
// Flagged shapes, in the gated packages only:
//
//	switch n.(type) { ... }        // any type switch (AST dispatch)
//	switch x.Op { ... }            // operator dispatch
//	switch x.Name { ... }          // builtin-name dispatch
//	switch x.Kind { ... }          // value-kind dispatch
//
// each without a default clause. Tagless switches (switch { ... }) are
// condition chains, not domain dispatch, and are never flagged. The fix is
// an explicit default returning the conservative element (top / "no
// claim"), even when the case list is complete today.
package lint

import (
	"fmt"
	"go/ast"
)

// latticeSelectors are the selector names whose switches dispatch over an
// abstract-domain discriminant in the gated packages.
var latticeSelectors = map[string]bool{"Op": true, "Name": true, "Kind": true}

// LatticeCheck is the exhaustive-dispatch analyzer for the abstract
// domains.
var LatticeCheck = &Analyzer{
	Name:        "latticecheck",
	Doc:         "abstract-domain switches must carry an explicit default clause",
	DefaultDirs: []string{"internal/absint", "internal/typecheck"},
	Run: func(pkg *Package) []Diagnostic {
		var diags []Diagnostic
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch t := n.(type) {
				case *ast.TypeSwitchStmt:
					if hasDefaultClause(t.Body) {
						return true
					}
					diags = append(diags, Diagnostic{
						Pos: pkg.Fset.Position(t.Pos()).String(),
						Message: "abstract-domain type switch has no default clause; " +
							"a node kind added later falls through to the zero value — default to the top element",
					})
				case *ast.SwitchStmt:
					if t.Tag == nil {
						return true // condition chain, not domain dispatch
					}
					sel, ok := t.Tag.(*ast.SelectorExpr)
					if !ok || !latticeSelectors[sel.Sel.Name] {
						return true
					}
					if hasDefaultClause(t.Body) {
						return true
					}
					diags = append(diags, Diagnostic{
						Pos: pkg.Fset.Position(t.Pos()).String(),
						Message: fmt.Sprintf("switch over %s has no default clause; "+
							"a domain element added later falls through silently — default to the conservative transfer",
							selText(sel)),
					})
				}
				return true
			})
		}
		return sortDiags(diags)
	},
}

// hasDefaultClause reports whether a switch body contains a default case.
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		if cc, ok := stmt.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// selText renders a selector tag for the message ("b.Op"; a non-identifier
// receiver renders as just the selector name).
func selText(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
