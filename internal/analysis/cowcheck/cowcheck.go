// Package cowcheck machine-checks the copy-on-write contract of qagview's
// incremental-maintenance subsystem (PR 5): a published lattice.Index is an
// immutable snapshot — concurrent readers (summarize runs, in-flight
// precompute sweeps) hold it without synchronization — so every change must
// flow through the COW entry points (ApplyDelta/Rebase), and shared
// dictionaries must be cloned before they are extended.
//
// Rules:
//
//  1. Foreign index writes: outside internal/lattice, any write to a field
//     of lattice.Cluster or lattice.Index (`c.Sum = ...`, `ix.L = ...`), or
//     through a coverage view (`c.Cov[i] = ...`, `c.Bits[w] |= ...`,
//     including one-level local aliases `cov := c.Cov; cov[i] = ...`), is
//     flagged. Cluster.Cov and Cluster.Bits are views into coverage chunks
//     the index shares among its filled clusters: writing one cluster's
//     view corrupts its neighbors for every reader of the index.
//
//  2. Dict mutation without Clone: outside internal/relation, calling the
//     interning method relation.Dict.ID — which mutates the dictionary — is
//     flagged unless a Dict.Clone or relation.NewDict call appears earlier in
//     the same function: cloning (the Clone-then-mutate idiom of
//     lattice.encodeRowsCOW) and fresh construction (lattice.NewSpace) both
//     establish ownership of the dictionary being extended. Lookup is the
//     read-only query and is always fine.
//
//  3. Discarded COW result: calling ApplyDelta or Rebase on a lattice.Index
//     and discarding every result (expression statement, or all-blank
//     assignment) is flagged: the receiver is never mutated, so the call
//     had no effect and the caller almost certainly believed otherwise.
//
//  4. Shared relation arrays: outside internal/relation, an index write into,
//     or an append onto, a slice that every generation of an appended table
//     shares is flagged: the Str/Int/Float slice of a relation.Column reached
//     from a *Relation (through Column, ColumnByName, or a one-level local
//     alias of the column or the slice), and ColDict.Codes,
//     ColGroups.Starts and ColGroups.Rows. Relation.Append extends these
//     arrays in place for the next generation, so one write corrupts every
//     generation, and an append writes into capacity the next Append owns.
//     Columns a caller builds itself are its own and stay unflagged.
package cowcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"qagview/internal/analysis"
)

// Analyzer is the cowcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "cowcheck",
	Doc:  "flags violations of the lattice.Index / relation.Dict / shared relation array copy-on-write contract",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	inLattice := analysis.PkgSegment(pass.Pkg, "lattice")
	inRelation := analysis.PkgSegment(pass.Pkg, "relation")
	analysis.FuncBodies(pass.Files, func(body *ast.BlockStmt) {
		covAliases := collectCovAliases(pass, body)
		var firstOwned token.Pos = token.NoPos
		var shared *sharedAliases
		if !inRelation {
			firstOwned = firstDictOwned(pass, body)
			shared = collectSharedAliases(pass, body)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if !inLattice {
						checkWrite(pass, covAliases, lhs)
					}
					if !inRelation {
						checkSharedWrite(pass, shared, lhs)
					}
				}
				if allBlank(st.Lhs) {
					for _, rhs := range st.Rhs {
						if call, ok := rhs.(*ast.CallExpr); ok {
							checkDiscardedCOW(pass, call)
						}
					}
				}
			case *ast.IncDecStmt:
				if !inLattice {
					checkWrite(pass, covAliases, st.X)
				}
				if !inRelation {
					checkSharedWrite(pass, shared, st.X)
				}
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDiscardedCOW(pass, call)
				}
			case *ast.CallExpr:
				if !inRelation {
					checkDictMutation(pass, st, firstOwned)
					checkSharedAppend(pass, shared, st)
				}
			}
			return true
		})
	})
	return nil
}

// checkWrite flags assignments through lattice-owned state.
func checkWrite(pass *analysis.Pass, covAliases map[types.Object]bool, lhs ast.Expr) {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		// c.Sum = ..., ix.Clusters = ... — direct field writes.
		if t := pass.TypeOf(l.X); isLatticeOwned(t) {
			pass.Reportf(lhs.Pos(), "write to lattice.%s.%s outside internal/lattice: published indexes are immutable copy-on-write snapshots; route the change through ApplyDelta/Rebase", analysis.Deref(t).(*types.Named).Obj().Name(), l.Sel.Name)
		}
	case *ast.IndexExpr:
		// c.Cov[i] = ..., c.Bits[w] = ..., cov[i] = ... (alias), ix.Clusters[i] = ...
		if isCovView(pass, covAliases, l.X) {
			pass.Reportf(lhs.Pos(), "write through a coverage-arena subslice outside internal/lattice: Cluster.Cov and Cluster.Bits view chunks the index shares, so this corrupts other clusters for every reader; build new coverage via ApplyDelta/Rebase")
			return
		}
		if sel, ok := l.X.(*ast.SelectorExpr); ok {
			if t := pass.TypeOf(sel.X); isLatticeOwned(t) {
				pass.Reportf(lhs.Pos(), "write into lattice.%s.%s outside internal/lattice: published indexes are immutable copy-on-write snapshots", analysis.Deref(t).(*types.Named).Obj().Name(), sel.Sel.Name)
			}
		}
	}
}

// isCovView reports whether e denotes a coverage view, a Cluster.Cov or
// Cluster.Bits subslice: the selector itself or a local alias assigned from
// one.
func isCovView(pass *analysis.Pass, covAliases map[types.Object]bool, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return (sel.Sel.Name == "Cov" || sel.Sel.Name == "Bits") && analysis.IsNamed(pass.TypeOf(sel.X), "lattice", "Cluster")
	}
	if id, ok := e.(*ast.Ident); ok {
		return covAliases[pass.ObjectOf(id)]
	}
	return false
}

// collectCovAliases finds local variables assigned (one level) from a
// Cluster.Cov or Cluster.Bits selector, in source order.
func collectCovAliases(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	aliases := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := as.Rhs[i]
			// Slicing an alias keeps it an alias: cov2 := cov[1:].
			if sl, ok := rhs.(*ast.SliceExpr); ok {
				rhs = sl.X
			}
			if isCovView(pass, aliases, rhs) {
				if obj := pass.ObjectOf(id); obj != nil {
					aliases[obj] = true
				}
			}
		}
		return true
	})
	return aliases
}

func isLatticeOwned(t types.Type) bool {
	return analysis.IsNamed(t, "lattice", "Cluster") || analysis.IsNamed(t, "lattice", "Index")
}

// sharedAliases are the local variables of one function that alias shared
// relation state (rule 4): columns reached from a *Relation, and the shared
// slices themselves, by the name the diagnostic gives them.
type sharedAliases struct {
	cols   map[types.Object]bool
	slices map[types.Object]string
}

// collectSharedAliases finds local variables assigned (one level, in source
// order) from a relation column or a shared slice, including subslices of
// one.
func collectSharedAliases(pass *analysis.Pass, body *ast.BlockStmt) *sharedAliases {
	a := &sharedAliases{cols: make(map[types.Object]bool), slices: make(map[types.Object]string)}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				continue
			}
			if isRelationColumn(pass, a, as.Rhs[i]) {
				a.cols[obj] = true
			} else if name, ok := sharedSlice(pass, a, as.Rhs[i]); ok {
				a.slices[obj] = name
			}
		}
		return true
	})
	return a
}

// isRelationColumn reports whether e denotes a column of a *Relation: a
// Column or ColumnByName call on one, its dereference, or an alias.
func isRelationColumn(pass *analysis.Pass, a *sharedAliases, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return isRelationColumn(pass, a, v.X)
	case *ast.CallExpr:
		recv, ok := analysis.MethodCall(v, "Column")
		if !ok {
			recv, ok = analysis.MethodCall(v, "ColumnByName")
		}
		return ok && analysis.IsNamed(pass.TypeOf(recv), "relation", "Relation")
	case *ast.Ident:
		return a.cols[pass.ObjectOf(v)]
	}
	return false
}

// sharedSlice reports whether e denotes a slice every generation of a
// table shares, returning its name for the diagnostic.
func sharedSlice(pass *analysis.Pass, a *sharedAliases, e ast.Expr) (string, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return sharedSlice(pass, a, v.X)
	case *ast.Ident:
		name, ok := a.slices[pass.ObjectOf(v)]
		return name, ok
	case *ast.SelectorExpr:
		owner := ""
		switch v.Sel.Name {
		case "Str", "Int", "Float":
			if isRelationColumn(pass, a, v.X) {
				owner = "Column"
			}
		case "Codes":
			if analysis.IsNamed(pass.TypeOf(v.X), "relation", "ColDict") {
				owner = "ColDict"
			}
		case "Starts", "Rows":
			if analysis.IsNamed(pass.TypeOf(v.X), "relation", "ColGroups") {
				owner = "ColGroups"
			}
		}
		if owner != "" {
			return "relation." + owner + "." + v.Sel.Name, true
		}
	}
	return "", false
}

// checkSharedWrite flags an index write into a shared relation slice.
func checkSharedWrite(pass *analysis.Pass, a *sharedAliases, lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if name, ok := sharedSlice(pass, a, ix.X); ok {
		pass.Reportf(lhs.Pos(), "write into %s outside internal/relation: every generation of an appended table shares this array, so the write corrupts them all; build fresh columns and use Relation.Append", name)
	}
}

// checkSharedAppend flags the builtin append onto a shared relation slice.
func checkSharedAppend(pass *analysis.Pass, a *sharedAliases, call *ast.CallExpr) {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) == 0 {
		return
	}
	if _, builtin := pass.ObjectOf(fn).(*types.Builtin); !builtin {
		return
	}
	if name, ok := sharedSlice(pass, a, call.Args[0]); ok {
		pass.Reportf(call.Pos(), "append onto %s outside internal/relation: its spare capacity belongs to the table's next generation (Relation.Append extends in place); copy the slice first or use Relation.Append", name)
	}
}

// checkDictMutation flags Dict.ID calls with no earlier ownership-taking call
// (Dict.Clone or NewDict) in the same function.
func checkDictMutation(pass *analysis.Pass, call *ast.CallExpr, firstOwned token.Pos) {
	recv, ok := analysis.MethodCall(call, "ID")
	if !ok || !analysis.IsNamed(pass.TypeOf(recv), "relation", "Dict") {
		return
	}
	if firstOwned != token.NoPos && firstOwned < call.Pos() {
		return
	}
	pass.Reportf(call.Pos(), "Dict.ID interns (mutates) a dictionary that may be shared with a published index; Clone the dictionary first (Clone-then-mutate, see lattice.encodeRowsCOW), or use the read-only Lookup")
}

// firstDictOwned returns the position of the first call that takes ownership
// of a dictionary — Dict.Clone, or NewDict construction — or NoPos.
func firstDictOwned(pass *analysis.Pass, body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	note := func(p token.Pos) {
		if pos == token.NoPos || p < pos {
			pos = p
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, ok := analysis.MethodCall(call, "Clone"); ok && analysis.IsNamed(pass.TypeOf(recv), "relation", "Dict") {
			note(call.Pos())
		}
		if analysis.CalleeName(call) == "NewDict" && analysis.IsNamed(pass.TypeOf(call), "relation", "Dict") {
			note(call.Pos())
		}
		return true
	})
	return pos
}

// checkDiscardedCOW flags ApplyDelta/Rebase calls whose results are all
// discarded.
func checkDiscardedCOW(pass *analysis.Pass, call *ast.CallExpr) {
	name := analysis.CalleeName(call)
	if name != "ApplyDelta" && name != "Rebase" {
		return
	}
	recv, ok := analysis.MethodCall(call, name)
	if !ok || !analysis.IsNamed(pass.TypeOf(recv), "lattice", "Index") {
		return
	}
	pass.Reportf(call.Pos(), "%s result discarded: the receiver index is never mutated (copy-on-write); use the returned index or delete the call", name)
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(lhs) > 0
}
