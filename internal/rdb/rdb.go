// Package rdb is the relational execution substrate for the paper's query
// experiment (Section 5.2 / Figure 15). The paper stores one row per
// element in an RDBMS and translates path queries into SQL whose join
// predicates compare labels — `mod` for the prime scheme, range comparisons
// for intervals, a prefix UDF for prefix labels. This package reproduces
// that pipeline in memory: an element table with a tag index, structural
// join operators (nested-loop and stack-based merge), and a plan executor
// that runs the same physical plan for every scheme so measured differences
// come from the label predicates alone.
package rdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"primelabel/internal/labeling"
	"primelabel/internal/xpath"

	"primelabel/internal/xmltree"
)

// Planner selects the structural-join algorithm ExecPath uses for
// descendant steps.
type Planner int

const (
	// NestedLoop tests every (context, candidate) pair — the baseline whose
	// cost is proportional to predicate evaluations (the Figure 15 setup).
	NestedLoop Planner = iota
	// StackTree merges both document-ordered inputs with an ancestor stack:
	// linear in input plus output instead of the product.
	StackTree
	// Extent drives every structural axis from the table's document-order
	// columns instead of label probes: ancestor/parent tests are O(1)
	// row-range containments against the subtree-extent column, child and
	// descendant steps are single-pass merges, and following/preceding are
	// binary-search range scans. Per step, the planner still falls back to
	// the nested loop (tiny inputs) or the order join (ranks unavailable);
	// the choice is recorded in StepProfile.JoinPlan. Results are
	// byte-identical to the label-driven planners — the labels stay the
	// verified ground truth in parity tests.
	Extent
)

// Table is the element relation: one row per element in document order.
type Table struct {
	// Plan selects the join algorithm for descendant steps (default
	// NestedLoop).
	Plan Planner

	// Parallelism is the worker budget for sharded join evaluation; <= 1
	// (the default) keeps every join sequential. Fan-out additionally
	// requires a warmed table — see parallel.go. Results are identical at
	// any setting.
	Parallelism int

	// MinParallelWork is the minimum (outer × inner) pair count before a
	// join fans out; 0 means defaultMinParallelWork. Tests lower it to
	// force sharding on small inputs.
	MinParallelWork int

	lab   labeling.Labeling
	nodes []*xmltree.Node // row id -> node
	rowOf map[*xmltree.Node]int
	byTag map[string][]int // tag index: row ids in document order
	// depth and extent are the structural columns the Extent planner joins
	// on. Rows are preorder positions, so a subtree occupies the contiguous
	// run [i, extent[i]]: depth[i] is row i's element-tree depth and
	// extent[i] the row of its last descendant (extent[i] == i for a leaf).
	// a is a proper ancestor of b iff a < b && b <= extent[a]; the parent
	// additionally satisfies depth[b] == depth[a]+1. Maintained by Build,
	// PatchInsert and PatchDelete, and validated against rebuilds by Diff.
	depth  []int
	extent []int
	// ranks memoizes labeling.Orderer lookups (Section 4.3: order numbers
	// are generated once per candidate list, then compared as integers).
	ranks map[*xmltree.Node]int
	// warmed marks that Warm pre-filled ranks for every row; from then on
	// query execution performs no internal writes, so the table is safe for
	// concurrent readers until the next structural update (which requires a
	// rebuild anyway — see Build).
	warmed bool
	// ordered marks that every row received a rank during Warm: document
	// order is fully decidable from the memo, so the Extent planner may
	// serve following/preceding from row positions. When false those axes
	// fall back to the order join, which fails (or succeeds) exactly as the
	// labeling's own Before would.
	ordered bool
}

// rank returns a document-order rank from the labeling when available.
func (t *Table) rank(n *xmltree.Node) (int, bool) {
	if v, ok := t.ranks[n]; ok {
		return v, true
	}
	or, ok := t.lab.(labeling.Orderer)
	if !ok {
		return 0, false
	}
	v, err := or.OrderOf(n)
	if err != nil {
		return 0, false
	}
	if !t.warmed {
		if t.ranks == nil {
			t.ranks = make(map[*xmltree.Node]int)
		}
		t.ranks[n] = v
	}
	return v, true
}

// Warm pre-materializes the rank memo for every row and freezes it, so
// subsequent queries (ExecPath, the join operators) perform no internal
// writes. A warmed table is safe for any number of concurrent reader
// goroutines as long as the labeling is quiescent; the label server warms
// each table right after Build and keeps it consistent across structural
// updates either by rebuilding (and re-warming) or by patching in place
// (PatchInsert, PatchDelete — which maintain the memo incrementally).
// Existing memo entries are kept, not recomputed: they are accurate by
// construction, filled from the labeling and adjusted by every patch.
func (t *Table) Warm() {
	if t.ranks == nil {
		t.ranks = make(map[*xmltree.Node]int, len(t.nodes))
	}
	ordered := true
	for _, n := range t.nodes {
		if _, ok := t.rank(n); !ok {
			ordered = false
		}
	}
	t.warmed = true
	t.ordered = ordered
}

// Build materializes the element table for a labeled document. Rebuild the
// table after structural updates.
func Build(lab labeling.Labeling) *Table {
	t := &Table{
		lab:   lab,
		rowOf: make(map[*xmltree.Node]int),
		byTag: make(map[string][]int),
	}
	xmltree.WalkElements(lab.Doc().Root, func(n *xmltree.Node) bool {
		id := len(t.nodes)
		t.nodes = append(t.nodes, n)
		t.rowOf[n] = id
		t.byTag[n.Name] = append(t.byTag[n.Name], id)
		return true
	})
	t.initStructure()
	return t
}

// initStructure fills the depth and extent columns from the preorder row
// sequence. Depth follows the element parent chain (a row whose parent is
// not an element — the document node above the root — is depth 0); extent
// falls out of the preorder invariant that a subtree ends at the first
// following row whose depth is not greater than its root's.
func (t *Table) initStructure() {
	n := len(t.nodes)
	t.depth = make([]int, n)
	t.extent = make([]int, n)
	for i, nd := range t.nodes {
		if p := nd.Parent; p != nil {
			// Parents precede children in preorder, so depth[pr] is final.
			if pr, ok := t.rowOf[p]; ok {
				t.depth[i] = t.depth[pr] + 1
			}
		}
	}
	var open []int // rows whose subtrees the scan is currently inside
	for i := 0; i < n; i++ {
		for len(open) > 0 && t.depth[i] <= t.depth[open[len(open)-1]] {
			t.extent[open[len(open)-1]] = i - 1
			open = open[:len(open)-1]
		}
		open = append(open, i)
	}
	for _, i := range open {
		t.extent[i] = n - 1
	}
}

// lastElementDescendant returns the preorder-last element in n's subtree
// (n itself when it has no element children): the node whose row is n's
// extent. O(depth of the subtree's right spine).
func lastElementDescendant(n *xmltree.Node) *xmltree.Node {
	for {
		var last *xmltree.Node
		for i := len(n.Children) - 1; i >= 0; i-- {
			if n.Children[i].Kind == xmltree.ElementNode {
				last = n.Children[i]
				break
			}
		}
		if last == nil {
			return n
		}
		n = last
	}
}

// InsertPos returns the row id a freshly inserted childless element will
// occupy: the row of its preorder successor (found by walking next element
// siblings up the ancestor chain), or Len() when the new node is the last
// element in document order. n must be attached to the tree but absent from
// the table, with every other element present. The second return is false
// when the position cannot be determined (a detached node, or a successor
// the table does not know) — callers fall back to a full rebuild.
func (t *Table) InsertPos(n *xmltree.Node) (int, bool) {
	for cur := n; ; {
		p := cur.Parent
		if p == nil {
			return len(t.nodes), true
		}
		idx := p.ChildIndex(cur)
		if idx < 0 {
			return 0, false
		}
		for _, c := range p.Children[idx+1:] {
			if c.Kind == xmltree.ElementNode {
				row, ok := t.rowOf[c]
				return row, ok
			}
		}
		cur = p
	}
}

// PatchInsert splices one freshly inserted element into the table at row
// pos instead of rebuilding: rows at and after pos shift up by one, the tag
// index is patched in place (tag lists are ascending, so only the suffix of
// ids >= pos moves), and the rank memo is maintained incrementally — rank
// becomes the new node's memoized document-order rank, and every later row
// with a memoized rank moves up by shiftDelta, the order-number shift the
// insertion performed on following nodes (order.Table.LastShift). Order
// numbers are strictly increasing in document order, so the shifted nodes
// are exactly the rows after pos. Callers hold the document's write lock; a
// warmed table stays warmed and complete.
func (t *Table) PatchInsert(pos int, n *xmltree.Node, rank, shiftDelta int) {
	if pos < 0 || pos > len(t.nodes) {
		panic(fmt.Sprintf("rdb: PatchInsert pos %d out of range [0,%d]", pos, len(t.nodes)))
	}
	t.nodes = append(t.nodes, nil)
	copy(t.nodes[pos+1:], t.nodes[pos:])
	t.nodes[pos] = n
	for i := pos; i < len(t.nodes); i++ {
		t.rowOf[t.nodes[i]] = i
	}
	t.patchInsertStructure(pos, n)
	// Bump existing ids >= pos before inserting the new node's own id, so
	// the new id is not double-counted.
	for _, ids := range t.byTag {
		for i := sort.SearchInts(ids, pos); i < len(ids); i++ {
			ids[i]++
		}
	}
	ids := t.byTag[n.Name]
	at := sort.SearchInts(ids, pos)
	ids = append(ids, 0)
	copy(ids[at+1:], ids[at:])
	ids[at] = pos
	t.byTag[n.Name] = ids
	if shiftDelta != 0 {
		for _, m := range t.nodes[pos+1:] {
			if r, ok := t.ranks[m]; ok {
				t.ranks[m] = r + shiftDelta
			}
		}
	}
	if t.ranks == nil {
		t.ranks = make(map[*xmltree.Node]int)
	}
	t.ranks[n] = rank
}

// patchInsertStructure splices the depth and extent columns for a node
// newly occupying row pos. The caller has already spliced nodes and
// renumbered rowOf, so rowOf answers in new (post-insert) coordinates.
// The rules, each a direct consequence of rows shifting up by one at pos:
//
//  1. Every surviving extent that pointed at or past pos moves with its
//     row (+1); extents before pos are untouched. After this, each extent
//     again names the row of the same last-descendant node as before.
//  2. The new row's depth is its parent's plus one, and its extent is the
//     row of its last element descendant — pos itself for a childless
//     insert, the renumbered end of the wrapped subtree for a wrap.
//  3. A wrap interposed n between its subtree and their old parent, so
//     every row in (pos, extent[pos]] gains one ancestor: depth++.
//  4. Each element ancestor of n extends its extent to cover n's subtree
//     (max with extent[pos] — a no-op unless n's subtree is now the
//     ancestor's preorder-last descendant run, e.g. an append at the end).
func (t *Table) patchInsertStructure(pos int, n *xmltree.Node) {
	t.depth = append(t.depth, 0)
	copy(t.depth[pos+1:], t.depth[pos:])
	t.extent = append(t.extent, 0)
	copy(t.extent[pos+1:], t.extent[pos:])
	for i := range t.extent {
		if i != pos && t.extent[i] >= pos {
			t.extent[i]++
		}
	}
	d := 0
	if p := n.Parent; p != nil {
		if pr, ok := t.rowOf[p]; ok {
			d = t.depth[pr] + 1
		}
	}
	t.depth[pos] = d
	t.extent[pos] = t.rowOf[lastElementDescendant(n)]
	for i := pos + 1; i <= t.extent[pos]; i++ {
		t.depth[i]++
	}
	for p := n.Parent; p != nil; p = p.Parent {
		pr, ok := t.rowOf[p]
		if !ok {
			break
		}
		if t.extent[pr] < t.extent[pos] {
			t.extent[pr] = t.extent[pos]
		}
	}
}

// PatchDelete removes the contiguous row range [pos, pos+len(removed))
// instead of rebuilding — a deleted subtree occupies exactly a contiguous
// preorder run, with removed holding its elements in that order. Later rows
// shift down, the tag index drops the removed ids and renumbers its
// suffixes, and the removed nodes leave the rank memo; surviving ranks are
// untouched because deletion never changes another node's order number.
// Callers hold the document's write lock; a warmed table stays warmed.
func (t *Table) PatchDelete(pos int, removed []*xmltree.Node) {
	k := len(removed)
	if k == 0 {
		return
	}
	if pos < 0 || pos+k > len(t.nodes) {
		panic(fmt.Sprintf("rdb: PatchDelete range [%d,%d) out of range [0,%d)", pos, pos+k, len(t.nodes)))
	}
	for _, n := range removed {
		delete(t.rowOf, n)
		delete(t.ranks, n)
	}
	t.nodes = append(t.nodes[:pos], t.nodes[pos+k:]...)
	for i := pos; i < len(t.nodes); i++ {
		t.rowOf[t.nodes[i]] = i
	}
	// Structural columns: survivors keep their depth (deleting a subtree
	// never re-parents anyone). Extents pointing past the removed run move
	// down with their rows; an extent inside the run belonged to an
	// ancestor of the deleted subtree (only an ancestor's span can cover
	// it), whose new last descendant is the row before the run.
	t.depth = append(t.depth[:pos], t.depth[pos+k:]...)
	t.extent = append(t.extent[:pos], t.extent[pos+k:]...)
	for i, e := range t.extent {
		switch {
		case e >= pos+k:
			t.extent[i] = e - k
		case e >= pos:
			t.extent[i] = pos - 1
		}
	}
	for tag, ids := range t.byTag {
		lo := sort.SearchInts(ids, pos)
		hi := sort.SearchInts(ids, pos+k)
		out := ids[:lo]
		for _, id := range ids[hi:] {
			out = append(out, id-k)
		}
		if len(out) == 0 {
			delete(t.byTag, tag)
		} else {
			t.byTag[tag] = out
		}
	}
}

// Diff compares t against a reference table over the same labeling and
// returns the first discrepancy (nil when equivalent): row order, reverse
// row lookup, the tag index, and — when both tables are warmed — the rank
// memo. It exists to verify that the incremental patch path (PatchInsert,
// PatchDelete) is indistinguishable from a fresh Build+Warm.
func (t *Table) Diff(ref *Table) error {
	if len(t.nodes) != len(ref.nodes) {
		return fmt.Errorf("rdb diff: %d rows, reference has %d", len(t.nodes), len(ref.nodes))
	}
	for i, n := range t.nodes {
		if ref.nodes[i] != n {
			return fmt.Errorf("rdb diff: row %d holds a different node than the reference", i)
		}
	}
	if len(t.rowOf) != len(t.nodes) {
		return fmt.Errorf("rdb diff: rowOf has %d entries for %d rows", len(t.rowOf), len(t.nodes))
	}
	for i, n := range t.nodes {
		if got, ok := t.rowOf[n]; !ok || got != i {
			return fmt.Errorf("rdb diff: rowOf[row %d] = %d (present %v)", i, got, ok)
		}
	}
	if len(t.depth) != len(t.nodes) || len(t.extent) != len(t.nodes) {
		return fmt.Errorf("rdb diff: structural columns sized %d/%d for %d rows",
			len(t.depth), len(t.extent), len(t.nodes))
	}
	for i := range t.nodes {
		if t.depth[i] != ref.depth[i] {
			return fmt.Errorf("rdb diff: depth of row %d = %d, reference %d", i, t.depth[i], ref.depth[i])
		}
		if t.extent[i] != ref.extent[i] {
			return fmt.Errorf("rdb diff: extent of row %d = %d, reference %d", i, t.extent[i], ref.extent[i])
		}
	}
	if len(t.byTag) != len(ref.byTag) {
		return fmt.Errorf("rdb diff: %d tags indexed, reference has %d", len(t.byTag), len(ref.byTag))
	}
	for tag, ids := range ref.byTag {
		got := t.byTag[tag]
		if len(got) != len(ids) {
			return fmt.Errorf("rdb diff: tag %q has %d ids, reference %d", tag, len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				return fmt.Errorf("rdb diff: tag %q id[%d] = %d, reference %d", tag, i, got[i], ids[i])
			}
		}
	}
	if t.warmed && ref.warmed {
		for _, n := range t.nodes {
			tr, tok := t.ranks[n]
			rr, rok := ref.ranks[n]
			if tok != rok || tr != rr {
				return fmt.Errorf("rdb diff: rank of row %d = %d (present %v), reference %d (present %v)",
					t.rowOf[n], tr, tok, rr, rok)
			}
		}
	}
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.nodes) }

// Node returns the node stored at a row id.
func (t *Table) Node(id int) *xmltree.Node { return t.nodes[id] }

// RowOf returns the row id of a node, or (-1, false) if the node is not in
// the table (e.g. it was inserted after Build).
func (t *Table) RowOf(n *xmltree.Node) (int, bool) {
	id, ok := t.rowOf[n]
	if !ok {
		return -1, false
	}
	return id, true
}

// RowSet is an ordered set of row ids (ascending = document order).
type RowSet []int

// Scan returns the rows matching a tag name ("*" scans everything).
func (t *Table) Scan(tag string) RowSet {
	rows, shared := t.tagRows(tag)
	if shared {
		return slices.Clone(rows)
	}
	return rows
}

// tagRows is Scan without the copy: for a tag it returns the tag index's
// own slice (shared reports this), which the caller must not modify or
// let escape; "*" builds a fresh all-rows set.
func (t *Table) tagRows(tag string) (rows RowSet, shared bool) {
	if tag == "*" {
		all := make(RowSet, len(t.nodes))
		for i := range all {
			all[i] = i
		}
		return all, false
	}
	return t.byTag[tag], true
}

// Nodes resolves a RowSet to its nodes.
func (t *Table) Nodes(rs RowSet) []*xmltree.Node {
	out := make([]*xmltree.Node, len(rs))
	for i, id := range rs {
		out[i] = t.nodes[id]
	}
	return out
}

// Pair is one join result: an outer (context/ancestor) row and an inner
// (descendant/match) row.
type Pair struct{ Out, In int }

// Pairs is a join result set.
type Pairs []Pair

// ProjectIn returns the distinct inner rows in ascending order (nil for
// no pairs): sorted, then compacted in place.
func (ps Pairs) ProjectIn() RowSet {
	if len(ps) == 0 {
		return nil
	}
	out := make(RowSet, len(ps))
	for i, p := range ps {
		out[i] = p.In
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// JoinPred decides whether an (outer, inner) node pair joins.
type JoinPred func(out, in *xmltree.Node) bool

// AncestorPred returns the labeling's ancestor test as a join predicate —
// the `mod` predicate for prime labels, range containment for intervals,
// the prefix UDF for prefix labels.
func (t *Table) AncestorPred() JoinPred {
	return func(out, in *xmltree.Node) bool { return t.lab.IsAncestor(out, in) }
}

// ParentPred returns the labeling's parent test.
func (t *Table) ParentPred() JoinPred {
	return func(out, in *xmltree.Node) bool { return t.lab.IsParent(out, in) }
}

// NLJoin is the baseline nested-loop structural join: every (outer, inner)
// combination is tested with the predicate. O(|outer|·|inner|) predicate
// evaluations — this operator is what makes per-scheme predicate cost
// visible. On a warmed table with Parallelism > 1 the scan is sharded
// across the worker pool; the output (outer-major, inner ascending) is
// identical either way.
func (t *Table) NLJoin(outer, inner RowSet, pred JoinPred) Pairs {
	return t.nlJoin(outer, inner, pred, nil)
}

// StackJoin is a stack-based structural join in the spirit of Stack-Tree:
// both inputs are in document order, so each ancestor is pushed once and
// popped when the cursor leaves its subtree. O(|outer|+|inner|+|result|)
// predicate evaluations instead of the nested loop's product. Pairs are
// emitted in (Out, In) order during the merge itself (see stackMerge), so
// the O(k log k) trailing sort earlier revisions paid is gone.
func (t *Table) StackJoin(outer, inner RowSet) Pairs {
	return t.stackMerge(outer, inner, t.labelContains(), false)
}

// ExecPath runs a full path query against the table with label-driven
// joins, returning matching rows in document order. It implements the same
// semantics as the xpath evaluators (verified against them in tests).
func (t *Table) ExecPath(q xpath.Query) (RowSet, error) {
	rs, _, err := t.ExecPathStats(q)
	return rs, err
}

// ExecPathStats is ExecPath plus fan-out accounting: the returned
// ExecStats reports how many join operators ran sharded, the total shard
// count, and the wall-clock time spent in sharded sections (all zero for
// a fully sequential execution).
func (t *Table) ExecPathStats(q xpath.Query) (RowSet, ExecStats, error) {
	var stats ExecStats
	rs, err := t.execPath(q, &stats, nil)
	return rs, stats, err
}

// execPath is the executor body; stats and ex may be nil, but a non-nil ex
// requires a non-nil stats (the explain entry points guarantee it) — the
// per-step fan-out attribution reads stats around each join.
func (t *Table) execPath(q xpath.Query, stats *ExecStats, ex *Explain) (RowSet, error) {
	if len(q.Steps) == 0 {
		return nil, errors.New("rdb: empty query")
	}
	// ctx == nil denotes the document context before the first step.
	// Candidates are read straight from the tag index; only a filtered
	// step copies. ctxShared marks a context that is still the index's own
	// slice (an unfiltered //tag first step), copied before it is returned
	// so no result aliases the index.
	var ctx RowSet
	ctxShared := false
	atDocument := true
	for _, step := range q.Steps {
		cands, shared := t.tagRows(step.Name)
		if len(step.Filters) > 0 {
			var filtered RowSet
			for _, id := range cands {
				if step.Matches(t.nodes[id]) {
					filtered = append(filtered, id)
				}
			}
			cands, shared = filtered, false
		}
		if stats != nil {
			stats.Candidates += len(cands)
		}
		var next RowSet
		if atDocument {
			switch step.Axis {
			case xpath.AxisChild:
				if len(cands) > 0 && cands[0] == 0 {
					next = RowSet{0}
				}
			case xpath.AxisDescendant:
				next, ctxShared = cands, shared
			}
			if step.Pos > 0 {
				if step.Pos <= len(next) {
					next = RowSet{next[step.Pos-1]}
				} else {
					next = nil
				}
				ctxShared = false
			}
			atDocument = false
			ctx = next
			if ex != nil {
				ex.addStep(StepProfile{
					Axis: step.Axis.String(), Name: step.Name, Pos: step.Pos,
					Filters: len(step.Filters), Candidates: len(cands), Emitted: len(ctx),
					JoinPlan: planScan,
				})
			}
			if len(ctx) == 0 {
				return nil, nil
			}
			continue
		}
		var preFanOuts, preShards int
		if ex != nil {
			preFanOuts, preShards = stats.FanOuts, stats.Shards
		}
		var joined int
		var plan string
		ctxShared = false
		// No positional predicate means only the distinct inner rows
		// survive this step, so the descendant, following and preceding
		// joins collapse to semi-joins: no pairs, no projection dedup. For a
		// semi-join the explain Pairs column equals Emitted.
		semi := t.Plan == Extent && step.Pos == 0
		switch {
		case semi && step.Axis == xpath.AxisDescendant:
			ctx = t.descendantCover(ctx, cands)
			joined = len(ctx)
			plan = planExtentCover
		case semi && t.ordered && (step.Axis == xpath.AxisFollowing || step.Axis == xpath.AxisPreceding):
			ctx = t.rangeCover(ctx, cands, step.Axis == xpath.AxisFollowing)
			joined = len(ctx)
			plan = planExtentRangeCover
		default:
			pairs, p, err := t.joinStep(ctx, cands, step, stats)
			if err != nil {
				return nil, err
			}
			joined = len(pairs)
			if step.Pos > 0 {
				pairs = nthPerOuter(pairs, step.Pos)
			}
			ctx = pairs.ProjectIn()
			plan = p
		}
		if ex != nil {
			ex.addStep(StepProfile{
				Axis: step.Axis.String(), Name: step.Name, Pos: step.Pos,
				Filters: len(step.Filters), Candidates: len(cands),
				Pairs: joined, Emitted: len(ctx), JoinPlan: plan,
				Parallel: stats.FanOuts > preFanOuts, Shards: stats.Shards - preShards,
			})
		}
		if len(ctx) == 0 {
			return nil, nil
		}
	}
	if ctxShared {
		ctx = slices.Clone(ctx)
	}
	return ctx, nil
}

// joinStep evaluates one non-initial step as a join between the context
// rows and the candidate rows, returning the chosen plan's name alongside
// the pairs; stats (may be nil) accumulates fan-outs. Under the Extent
// planner the choice is per-step and cost-based (see extentJoinPlan);
// every planner produces byte-identical pairs on every axis.
func (t *Table) joinStep(ctx, cands RowSet, step xpath.Step, stats *ExecStats) (Pairs, string, error) {
	switch step.Axis {
	case xpath.AxisChild:
		if t.Plan == Extent {
			switch plan := extentJoinPlan(len(ctx), len(cands)); plan {
			case planExtentProbe:
				return t.extentProbe(ctx, cands, true), plan, nil
			case planExtentMerge:
				return t.stackMerge(ctx, cands, t.extentContains, true), plan, nil
			}
		}
		return t.nlJoin(ctx, cands, t.ParentPred(), stats), planNestedLoop, nil
	case xpath.AxisDescendant:
		switch t.Plan {
		case Extent:
			switch plan := extentJoinPlan(len(ctx), len(cands)); plan {
			case planExtentProbe:
				return t.extentProbe(ctx, cands, false), plan, nil
			case planExtentMerge:
				return t.stackMerge(ctx, cands, t.extentContains, false), plan, nil
			}
			return t.nlJoin(ctx, cands, t.AncestorPred(), stats), planNestedLoop, nil
		case StackTree:
			return t.StackJoin(ctx, cands), planStackMerge, nil
		default:
			return t.nlJoin(ctx, cands, t.AncestorPred(), stats), planNestedLoop, nil
		}
	case xpath.AxisFollowing:
		if t.Plan == Extent && t.ordered {
			return t.rangeJoin(ctx, cands, true), planExtentRange, nil
		}
		ps, err := t.orderJoin(ctx, cands, func(c, n *xmltree.Node) (bool, error) {
			after, err := t.before(c, n)
			if err != nil {
				return false, err
			}
			return after && !t.lab.IsAncestor(c, n), nil
		}, stats)
		return ps, planOrderScan, err
	case xpath.AxisPreceding:
		if t.Plan == Extent && t.ordered {
			return t.rangeJoin(ctx, cands, false), planExtentRange, nil
		}
		ps, err := t.orderJoin(ctx, cands, func(c, n *xmltree.Node) (bool, error) {
			before, err := t.before(n, c)
			if err != nil {
				return false, err
			}
			return before && !t.lab.IsAncestor(n, c), nil
		}, stats)
		return ps, planOrderScan, err
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		following := step.Axis == xpath.AxisFollowingSibling
		if t.Plan == Extent && t.ordered {
			return t.siblingChain(ctx, cands, following), planSiblingChain, nil
		}
		ps, err := t.siblingJoin(ctx, cands, following)
		return ps, planSiblingIndex, err
	default:
		return nil, "", fmt.Errorf("rdb: unsupported axis %v", step.Axis)
	}
}

// before decides document order, preferring materialized ranks.
func (t *Table) before(a, b *xmltree.Node) (bool, error) {
	if ra, ok := t.rank(a); ok {
		if rb, ok := t.rank(b); ok {
			return ra < rb, nil
		}
	}
	return t.lab.Before(a, b)
}

func (t *Table) siblingJoin(ctx, cands RowSet, following bool) (Pairs, error) {
	// Group candidates by parent: sibling tests only ever join rows that
	// share a parent, so the per-context probe set shrinks from |cands| to
	// one sibling list.
	byParent := make(map[*xmltree.Node]RowSet)
	for _, i := range cands {
		if p := t.nodes[i].Parent; p != nil {
			byParent[p] = append(byParent[p], i)
		}
	}
	var out Pairs
	for _, c := range ctx {
		cn := t.nodes[c]
		if cn.Parent == nil {
			continue
		}
		for _, i := range byParent[cn.Parent] {
			n := t.nodes[i]
			if n == cn || !t.lab.IsParent(cn.Parent, n) {
				continue
			}
			var keep bool
			var err error
			if following {
				keep, err = t.before(cn, n)
			} else {
				keep, err = t.before(n, cn)
			}
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, Pair{Out: c, In: i})
			}
		}
	}
	return out, nil
}

// nthPerOuter keeps, for each outer row, its n-th inner row in ascending
// (document) order — the positional predicate over a context node set.
// Pairs already sorted by (Out, In), which every join operator emits for an
// ascending context, take one linear pass over the groups; any other order
// is grouped through a map, outers in first-appearance order.
func nthPerOuter(ps Pairs, n int) Pairs {
	if sortedPairs(ps) {
		var out Pairs
		for i := 0; i < len(ps); {
			j := i + 1
			for j < len(ps) && ps[j].Out == ps[i].Out {
				j++
			}
			if n <= j-i {
				out = append(out, ps[i+n-1])
			}
			i = j
		}
		return out
	}
	byOuter := make(map[int][]int)
	var outerOrder []int
	for _, p := range ps {
		if _, ok := byOuter[p.Out]; !ok {
			outerOrder = append(outerOrder, p.Out)
		}
		byOuter[p.Out] = append(byOuter[p.Out], p.In)
	}
	var out Pairs
	for _, o := range outerOrder {
		ins := byOuter[o]
		sort.Ints(ins)
		if n <= len(ins) {
			out = append(out, Pair{Out: o, In: ins[n-1]})
		}
	}
	return out
}

// sortedPairs reports whether ps is strictly ascending by (Out, In).
func sortedPairs(ps Pairs) bool {
	for k := 1; k < len(ps); k++ {
		a, b := ps[k-1], ps[k]
		if a.Out > b.Out || (a.Out == b.Out && a.In >= b.In) {
			return false
		}
	}
	return true
}

// ExecPathString parses and executes a query.
func (t *Table) ExecPathString(query string) (RowSet, error) {
	rs, _, err := t.ExecPathStringStats(query)
	return rs, err
}

// ExecPathStringStats parses and executes a query, reporting fan-out
// statistics like ExecPathStats.
func (t *Table) ExecPathStringStats(query string) (RowSet, ExecStats, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return t.ExecPathStats(q)
}
