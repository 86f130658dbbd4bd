// Forward dataflow over a CFG. Facts are string keys chosen by the
// analyzer ("held:sh.mu", "open:f"); the solver iterates transfer
// functions over blocks to a fixpoint and hands back each block's
// entry set, which the analyzer then replays through the block's nodes
// to check individual program points in order.
package analysis

import "go/ast"

// FactSet is a set of dataflow facts.
type FactSet map[string]bool

// Clone returns an independent copy of s.
func (s FactSet) Clone() FactSet {
	out := make(FactSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// intersect removes facts from s that o lacks.
func (s FactSet) intersect(o FactSet) {
	for k := range s {
		if !o[k] {
			delete(s, k)
		}
	}
}

// union adds o's facts to s.
func (s FactSet) union(o FactSet) {
	for k := range o {
		s[k] = true
	}
}

// Flow is one forward dataflow problem over a CFG.
type Flow struct {
	CFG *CFG

	// Transfer applies one block node to facts in place. Nodes are the
	// statements (and branch conditions) the CFG builder recorded, in
	// execution order.
	Transfer func(n ast.Node, facts FactSet)

	// EdgeTransfer, when non-nil, refines facts along a conditional
	// edge: cond is the block's Cond expression and branch is true for
	// Succs[0], false for Succs[1]. leakcheck uses it to kill a
	// resource on the `err != nil` arm of its acquisition check.
	EdgeTransfer func(cond ast.Expr, branch bool, facts FactSet)

	// Must selects the join: true intersects predecessor facts (a fact
	// holds only if it holds on every path — lock-held analysis), false
	// unions them (a fact holds if it holds on some path — guard
	// reachability).
	Must bool
}

// Solve iterates to a fixpoint and returns each block's entry fact
// set, indexed by Block.Index. Unreachable blocks get nil (callers
// skip them). The entry block starts empty.
func (f *Flow) Solve() []FactSet {
	n := len(f.CFG.Blocks)
	in := make([]FactSet, n)
	in[f.CFG.Entry.Index] = FactSet{}

	work := []*Block{f.CFG.Entry}
	inWork := make([]bool, n)
	inWork[f.CFG.Entry.Index] = true

	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false

		out := in[blk.Index].Clone()
		for _, node := range blk.Nodes {
			f.Transfer(node, out)
		}

		for si, succ := range blk.Succs {
			edge := out
			if f.EdgeTransfer != nil && blk.Cond != nil && si < 2 {
				edge = out.Clone()
				f.EdgeTransfer(blk.Cond, si == 0, edge)
			}
			next := in[succ.Index]
			changed := false
			switch {
			case next == nil:
				next = edge.Clone()
				changed = true
			case f.Must:
				before := len(next)
				next.intersect(edge)
				changed = len(next) != before
			default:
				before := len(next)
				next.union(edge)
				changed = len(next) != before
			}
			in[succ.Index] = next
			if changed && !inWork[succ.Index] {
				work = append(work, succ)
				inWork[succ.Index] = true
			}
		}
	}
	return in
}

// Replay walks one block's nodes with the block's entry facts,
// invoking check before each node's transfer — the hook where
// analyzers report per-point diagnostics (e.g. "field read while lock
// not held"). The facts passed to check are the state just before the
// node executes.
func (f *Flow) Replay(blk *Block, entry FactSet, check func(n ast.Node, facts FactSet)) {
	facts := entry.Clone()
	for _, node := range blk.Nodes {
		check(node, facts)
		f.Transfer(node, facts)
	}
}
