// The goroutineowner analyzer enforces the single-owner discipline the
// concurrent subsystems rely on (the world build's worker pool, the fleet's
// dispatch loop, the scan worker pool): a variable captured by a
// go-statement closure must be written on only one side of the spawn
// unless the two sides hand ownership off through a mutex, a WaitGroup
// join, or a channel synchronization. The -race detector finds these
// races only when the schedule cooperates; this pass finds the pattern
// statically.
//
// The check is deliberately narrow to stay precise: only direct writes to
// the captured variable itself (x = …, x++, x += …) count. Writes through
// an index (outs[i] = …) are the sanctioned disjoint-slot idiom of the
// worker pools, and writes through a pointer or field are aliasing
// questions this pass does not attempt.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineOwner builds the analyzer.
func GoroutineOwner() *Analyzer {
	return &Analyzer{
		Name: "goroutineowner",
		Doc: "a variable captured by a go-statement closure must not be written both inside the " +
			"goroutine and outside it (or in a sibling goroutine) without a mutex, WaitGroup " +
			"join, or channel handoff between the writes",
		Run: runGoroutineOwner,
	}
}

func runGoroutineOwner(p *Pass) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkGoroutineOwner(p, fd)
			}
		}
	}
}

// goSpawn is one `go func(){…}()` statement in a function body.
type goSpawn struct {
	stmt *ast.GoStmt
	lit  *ast.FuncLit
}

// varWrite is one direct assignment to a variable.
type varWrite struct {
	obj   *types.Var
	pos   token.Pos
	spawn *goSpawn // owning go-closure, nil for function-body writes
}

func checkGoroutineOwner(p *Pass, fd *ast.FuncDecl) {
	var spawns []*goSpawn
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			spawns = append(spawns, &goSpawn{stmt: g, lit: lit})
		}
		return true
	})
	if len(spawns) == 0 {
		return
	}
	spawnOf := func(pos token.Pos) *goSpawn {
		for _, s := range spawns {
			if s.lit.Pos() <= pos && pos < s.lit.End() {
				return s
			}
		}
		return nil
	}

	// Collect every direct write to a variable declared in fd's body
	// outside all go-closures (the candidates for capture).
	declaredOutside := func(v *types.Var) bool {
		pos := v.Pos()
		if pos < fd.Body.Pos() || pos >= fd.Body.End() {
			return false
		}
		return spawnOf(pos) == nil
	}
	var writes []varWrite
	record := func(lhs ast.Expr, at token.Pos) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj, _ := p.Info.Uses[id].(*types.Var)
		if obj == nil {
			// `x := …` redeclarations define rather than use; a define
			// is a write to a fresh variable, never to a captured one.
			return
		}
		if !declaredOutside(obj) {
			return
		}
		writes = append(writes, varWrite{obj: obj, pos: at, spawn: spawnOf(at)})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs, lhs.Pos())
			}
		case *ast.IncDecStmt:
			record(n.X, n.X.Pos())
		}
		return true
	})

	for _, s := range spawns {
		checkSpawn(p, fd, s, writes)
	}
}

// checkSpawn reports conflicts between writes inside one spawned closure
// and writes after the spawn (outside, or in sibling closures).
func checkSpawn(p *Pass, fd *ast.FuncDecl, s *goSpawn, writes []varWrite) {
	inside := make(map[*types.Var][]varWrite)
	for _, w := range writes {
		if w.spawn == s {
			inside[w.obj] = append(inside[w.obj], w)
		}
	}
	if len(inside) == 0 {
		return
	}
	for _, w := range writes {
		insideWrites, captured := inside[w.obj]
		if !captured {
			continue
		}
		conflicting := false
		switch {
		case w.spawn == nil && w.pos > s.stmt.End():
			conflicting = true
		case w.spawn != nil && w.spawn != s && w.spawn.stmt.Pos() > s.stmt.Pos():
			// Sibling goroutine spawned after this one, also writing the
			// captured variable: both run concurrently.
			conflicting = true
		}
		if !conflicting {
			continue
		}
		if joinedBefore(p, fd, s, w.pos) {
			continue
		}
		if mutexGuarded(p, s.lit, insideWrites[0].pos) && writeGuarded(p, fd, w) {
			continue
		}
		spawnLine := p.Fset.Position(s.stmt.Pos()).Line
		p.Reportf(w.pos,
			"%s is written both inside the goroutine spawned at line %d and here, with no mutex, "+
				"WaitGroup join, or channel handoff between the writes",
			w.obj.Name(), spawnLine)
		return // one finding per spawn is enough to fail the build
	}
}

// joinedBefore reports whether a join barrier — a *.Wait() call or a
// top-level channel receive — sits between the spawn and pos in the
// function body, outside any go-closure.
func joinedBefore(p *Pass, fd *ast.FuncDecl, s *goSpawn, pos token.Pos) bool {
	if pos < s.stmt.End() {
		// A write inside a sibling closure: its textual position says
		// nothing about ordering, so no barrier applies.
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // barriers inside closures do not order the outer body
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" &&
				n.Pos() > s.stmt.End() && n.End() <= pos {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && n.Pos() > s.stmt.End() && n.End() <= pos {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[n.X]; ok && n.Pos() > s.stmt.End() && n.Pos() <= pos {
				if _, isChan := types.Unalias(tv.Type).(*types.Chan); isChan {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// mutexGuarded reports whether a *.Lock() call precedes pos inside the
// given closure body.
func mutexGuarded(p *Pass, lit *ast.FuncLit, pos token.Pos) bool {
	return lockBefore(lit.Body, pos)
}

// writeGuarded reports whether the conflicting write is itself preceded
// by a *.Lock() call in its own scope (the function body for outside
// writes, the sibling closure for closure writes).
func writeGuarded(p *Pass, fd *ast.FuncDecl, w varWrite) bool {
	if w.spawn != nil {
		return lockBefore(w.spawn.lit.Body, w.pos)
	}
	return lockBefore(fd.Body, w.pos)
}

// lockBefore reports whether a *.Lock() or *.RLock() call appears in body
// before pos. The check is lexical and does not verify both sides lock
// the same mutex — pairing a lock with the wrong mutex is a bug -race
// still catches, while the common case (one mutex in scope) stays quiet.
func lockBefore(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") && call.End() <= pos {
			found = true
		}
		return true
	})
	return found
}
