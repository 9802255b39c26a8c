package rdb

// Document-order extent joins: the physical operators behind the Extent
// planner, plus the stack-merge core StackJoin shares. Every operator here
// exploits the same invariant — rows are preorder positions, so a subtree
// is the contiguous run [i, extent[i]] — to replace per-pair label probes
// (big.Int divisibility for prime labels) with O(1) integer comparisons
// and single-pass merges. The label-driven operators remain: they are the
// ground truth the parity tests hold these operators to, byte for byte.

import (
	"math/bits"
	"slices"
	"sort"
)

// Join plan names, recorded per step in StepProfile.JoinPlan so EXPLAIN
// output shows which physical operator the planner picked.
const (
	// planScan is the document-context first step: a tag-index scan, no join.
	planScan = "scan"
	// planNestedLoop is the label-predicate nested loop (possibly sharded).
	planNestedLoop = "nested-loop"
	// planExtentProbe probes the candidate index per context row: binary
	// search to the subtree run, then an O(answer) walk.
	planExtentProbe = "extent-probe"
	// planExtentMerge is the single-pass document-order stack merge over
	// extent containments (child and descendant axes).
	planExtentMerge = "extent-merge"
	// planExtentRange is the binary-search row-range scan for
	// following/preceding.
	planExtentRange = "extent-range"
	// planExtentCover is the descendant semi-join: the union of context
	// subtree intervals swept once against the candidate index. Chosen
	// whenever the step has no positional predicate — the executor then
	// needs only the distinct inner rows, so pair materialization and the
	// projection's dedup both vanish.
	planExtentCover = "extent-cover"
	// planExtentRangeCover is the following/preceding semi-join: with no
	// positional predicate the union of the context rows' ranges is one
	// range, cut by a single bound. Chosen on ordered tables only, for the
	// same error-parity reason as planExtentRange.
	planExtentRangeCover = "extent-range-cover"
	// planStackMerge is the label-predicate stack merge (StackTree).
	planStackMerge = "stack-merge"
	// planOrderScan is the pairwise order-predicate join (possibly sharded).
	planOrderScan = "order-scan"
	// planSiblingIndex is the parent-grouped sibling join.
	planSiblingIndex = "sibling-index"
	// planSiblingChain walks the next-sibling chain through the extent
	// column (ordered tables only).
	planSiblingChain = "sibling-chain"
)

// tinyJoinWork is the (outer × inner) pair count below which the Extent
// planner keeps the plain nested loop: at that size operator constant
// factors dominate and the label predicates are exercised for free.
const tinyJoinWork = 256

// extentJoinPlan is the Extent planner's per-step cost model for the
// containment axes. Costs in comparisons: the nested loop pays o·c, the
// index probe o·(log₂c + answer), the merge o + c + answer. The answer
// term is common, so the probe wins once the context side is small enough
// that o·log₂c undercuts the merge's full sweep of both inputs.
func extentJoinPlan(nctx, ncands int) string {
	if nctx*ncands <= tinyJoinWork {
		return planNestedLoop
	}
	if nctx*(bits.Len(uint(ncands))+1) < nctx+ncands {
		return planExtentProbe
	}
	return planExtentMerge
}

// extentContains reports whether row o is a proper ancestor of row i: the
// O(1) containment test that replaces the labeling's ancestor probe.
func (t *Table) extentContains(o, i int) bool {
	return o < i && i <= t.extent[o]
}

// stackMerge is the document-order merge core shared by StackJoin and the
// Extent planner's child/descendant operators. Both inputs are ascending
// row sets; contains(o, i) decides proper containment (label probe or
// extent comparison). Each outer row is pushed once and popped once, and —
// unlike the classic Stack-Tree formulation — pairs are emitted already in
// (Out, In) order, so no trailing sort is needed: every stack entry
// accumulates its own pairs (constant Out, ascending In) plus the flushed
// chunks of its popped stack-descendants, whose Out rows are all greater
// and whose spans are disjoint and ascending; concatenation at pop time
// preserves order by construction. With childOnly set, only the top entry
// can be the inner row's parent (it is the innermost outer ancestor), so a
// depth comparison emits at most one pair per inner row.
func (t *Table) stackMerge(outer, inner RowSet, contains func(o, i int) bool, childOnly bool) Pairs {
	if len(outer) == 0 || len(inner) == 0 {
		return nil
	}
	type entry struct {
		row      int
		self     Pairs   // pairs with Out == row, In ascending
		deferred []Pairs // sorted chunks flushed by popped descendants
	}
	var (
		stack []entry
		done  []Pairs
		total int
	)
	pop := func() {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		chunks := e.deferred
		if len(e.self) > 0 {
			chunks = append([]Pairs{e.self}, e.deferred...)
		}
		if len(chunks) == 0 {
			return
		}
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			top.deferred = append(top.deferred, chunks...)
		} else {
			done = append(done, chunks...)
		}
	}
	oi := 0
	for _, in := range inner {
		// Push every outer row starting before the current inner row,
		// flushing stack tops whose subtrees ended (they cannot contain the
		// new candidate, hence no later row either).
		for oi < len(outer) && outer[oi] < in {
			cand := outer[oi]
			for len(stack) > 0 && !contains(stack[len(stack)-1].row, cand) {
				pop()
			}
			stack = append(stack, entry{row: cand})
			oi++
		}
		// Flush outers whose subtree ended before this inner row; the rest
		// form a nested chain that all contain it.
		for len(stack) > 0 && !contains(stack[len(stack)-1].row, in) {
			pop()
		}
		if len(stack) == 0 {
			continue
		}
		if childOnly {
			top := &stack[len(stack)-1]
			if t.depth[top.row]+1 == t.depth[in] {
				top.self = append(top.self, Pair{Out: top.row, In: in})
				total++
			}
			continue
		}
		for k := range stack {
			stack[k].self = append(stack[k].self, Pair{Out: stack[k].row, In: in})
		}
		total += len(stack)
	}
	for len(stack) > 0 {
		pop()
	}
	out := make(Pairs, 0, total)
	for _, c := range done {
		out = append(out, c...)
	}
	return out
}

// extentProbe joins by probing the candidate index per context row: one
// binary search to the start of o's subtree run, then a walk bounded by
// extent[o]. Output is (Out, In)-sorted by construction, identical to the
// merge's. The cost model routes here when the context side is small.
func (t *Table) extentProbe(ctx, cands RowSet, childOnly bool) Pairs {
	var out Pairs
	for _, o := range ctx {
		end := t.extent[o]
		for _, i := range cands[sort.SearchInts(cands, o+1):] {
			if i > end {
				break
			}
			if childOnly && t.depth[i] != t.depth[o]+1 {
				continue
			}
			out = append(out, Pair{Out: o, In: i})
		}
	}
	return out
}

// descendantCover projects the descendant join without materializing it:
// each candidate inside any context subtree is emitted exactly once, in
// ascending row order. Subtree intervals are laminar — a later context row
// is either nested inside the rightmost swept interval (extent within
// `covered`, nothing new) or starts past it — so the answer is a sequence
// of disjoint runs of the candidate list, one per outermost context row,
// found by galloping a monotone cursor: O(|ctx| + runs·log|cands|),
// independent of how many (ancestor, descendant) pairs the full join would
// enumerate. The runs are measured first so the result is allocated once.
// Output equals Pairs.ProjectIn() of that join, byte for byte.
func (t *Table) descendantCover(ctx, cands RowSet) RowSet {
	runs := func(emit func(lo, hi int)) {
		covered := -1 // rightmost row any swept subtree reaches
		j := 0
		for _, o := range ctx {
			if t.extent[o] <= covered {
				continue
			}
			lo := gallop(cands, j, o+1)
			j = gallop(cands, lo, t.extent[o]+1)
			emit(lo, j)
			covered = t.extent[o]
		}
	}
	n := 0
	runs(func(lo, hi int) { n += hi - lo })
	if n == 0 {
		return nil
	}
	out := make(RowSet, 0, n)
	runs(func(lo, hi int) { out = append(out, cands[lo:hi]...) })
	return out
}

// rangeJoin answers following/preceding as row-range scans: following(c)
// is exactly the candidate rows after c's subtree (> extent[c]), and
// preceding(c) the rows before c that are not ancestors of c (extent < c).
// O(log c + answer) per context row, in the order join's output order
// (context-major, candidates ascending). Only valid when the table is
// ordered — otherwise the order join runs, failing exactly as the
// labeling's Before would on a scheme without order support.
func (t *Table) rangeJoin(ctx, cands RowSet, following bool) Pairs {
	var out Pairs
	for _, c := range ctx {
		if following {
			for _, i := range cands[sort.SearchInts(cands, t.extent[c]+1):] {
				out = append(out, Pair{Out: c, In: i})
			}
			continue
		}
		for _, i := range cands[:sort.SearchInts(cands, c)] {
			if t.extent[i] < c {
				out = append(out, Pair{Out: c, In: i})
			}
		}
	}
	return out
}

// rangeCover projects rangeJoin without materializing it. following(c) is
// the candidates past extent[c], so their union over the context is the
// candidates past the smallest such extent. preceding(c) is the candidates
// i with extent[i] < c (which implies i < c), so the union is the
// candidates whose subtree ends before the largest context row. One pass
// over the candidates, in ascending row order; output equals
// Pairs.ProjectIn() of rangeJoin's pairs.
func (t *Table) rangeCover(ctx, cands RowSet, following bool) RowSet {
	if len(ctx) == 0 {
		return nil
	}
	if following {
		first := t.extent[ctx[0]]
		for _, c := range ctx[1:] {
			first = min(first, t.extent[c])
		}
		return slices.Clone(cands[sort.SearchInts(cands, first+1):])
	}
	last := ctx[len(ctx)-1]
	var out RowSet
	for _, i := range cands[:sort.SearchInts(cands, last)] {
		if t.extent[i] < last {
			out = append(out, i)
		}
	}
	return out
}

// siblingChain answers following-sibling and preceding-sibling from the
// structural columns. The row after a subtree's run, extent[r]+1, is r's
// next sibling exactly when it sits at r's depth (a shallower row means the
// parent's run ended), so a sibling list is the chain r → extent[r]+1.
// following walks the chain from c's next sibling to its end; preceding
// walks it from the parent's first child up to c. Candidate membership is a
// galloping cursor over cands, so a context row costs its sibling run plus
// a logarithm of the candidates it skips — never the sibling list squared —
// and the pairs come out context-major with inner rows ascending, the order
// siblingJoin emits. Only valid when the table is ordered, for the same
// error-parity reason as rangeJoin.
func (t *Table) siblingChain(ctx, cands RowSet, following bool) Pairs {
	out := make(Pairs, 0, len(ctx))
	k := 0 // cursor at the previous context's first chain row
	for _, c := range ctx {
		r, stop := t.extent[c]+1, len(t.nodes)
		if !following {
			p, ok := t.rowOf[t.nodes[c].Parent]
			if !ok {
				continue // the root has no siblings
			}
			r, stop = p+1, c
		}
		if k > 0 && cands[k-1] >= r {
			k = 0
		}
		k = gallop(cands, k, r)
		for j := k; r < stop && t.depth[r] == t.depth[c]; r = t.extent[r] + 1 {
			if j = gallop(cands, j, r); j < len(cands) && cands[j] == r {
				out = append(out, Pair{Out: c, In: r})
				j++
			}
		}
	}
	return out
}

// gallop returns the first index at or after j whose row is >= r, given
// that every row before j is < r: an exponential then binary search, so a
// skip of s rows costs O(log s) and no skip costs one comparison.
func gallop(rows RowSet, j, r int) int {
	if j >= len(rows) || rows[j] >= r {
		return j
	}
	lo, step := j, 1 // rows[lo] < r
	for lo+step < len(rows) && rows[lo+step] < r {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(rows))
	return lo + 1 + sort.SearchInts(rows[lo+1:hi], r)
}

// Depth returns row id's element-tree depth (root = 0).
func (t *Table) Depth(id int) int { return t.depth[id] }

// Extent returns the row of id's preorder-last descendant (id itself for a
// leaf): the subtree of id occupies rows [id, Extent(id)].
func (t *Table) Extent(id int) int { return t.extent[id] }

// labelContains adapts the labeling's ancestor probe to the merge core's
// row signature.
func (t *Table) labelContains() func(o, i int) bool {
	pred := t.AncestorPred()
	return func(o, i int) bool { return pred(t.nodes[o], t.nodes[i]) }
}
