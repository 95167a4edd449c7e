package engine

import (
	"fmt"
	"strings"

	"xmlrdb/internal/obs"
	"xmlrdb/internal/sqldb"
)

// The planner half of the Volcano split: planSelect binds a SELECT's
// sources, classifies its predicates (pushdown, join, residual) and
// produces a physical plan tree — SeqScan / IndexScan / RangeScan,
// Filter, HashJoin / NestedLoopJoin, Aggregate, Project, Sort / TopK,
// Distinct, Offset and Limit nodes, each carrying a cardinality hint.
// The tree executes as streaming iterators (operators.go); nothing is
// materialized here beyond index posting lists.
//
// Planning runs under db.mu shared and the statement's row locks — the
// catalog and index postings it consults cannot change underneath it —
// but the locks drop as soon as the plan is built: execution reads the
// immutable table versions captured into each source (version.go), and
// any posting list the plan keeps is copied here because writers mutate
// the live posting slices in place after the locks release.

// physPlan is a planned SELECT: the operator tree, the output column
// names and the shared row environment the iterators evaluate in.
type physPlan struct {
	root planNode
	cols []string
	env  *rowEnv

	finished bool
	dig      *obs.PlanDigest // memoized at cursor close; see digest()
}

// opStats is the per-operator runtime accounting: rows emitted and —
// on timed (EXPLAIN or traced) runs — cumulative time spent in the
// operator and its children. Traced cursors time a 1-in-N sample of
// Next calls, so calls/timedCalls record how to scale nanos back up;
// EXPLAIN times every call and the two counters match.
type opStats struct {
	rows       int64
	nanos      int64
	openNanos  int64
	calls      int64
	timedCalls int64
}

// estNanos returns the operator's estimated total Next time, scaling
// the sampled measurement up to the full call count.
func (st *opStats) estNanos() int64 {
	if st.timedCalls > 0 && st.calls > st.timedCalls {
		return st.nanos * st.calls / st.timedCalls
	}
	return st.nanos
}

// planNode is one physical operator. describe returns the stable label
// EXPLAIN renders, kind the obs accounting bucket, estimate the
// planner's cardinality hint; open builds the node's iterator (opening
// children through openNode so stats wrappers nest).
type planNode interface {
	describe() string
	kind() string
	estimate() int
	children() []planNode
	open(ec *execCtx) (rowIter, error)
	stats() *opStats
}

// nodeBase carries the fields every operator shares.
type nodeBase struct {
	st   opStats
	hint int
}

func (n *nodeBase) estimate() int   { return n.hint }
func (n *nodeBase) stats() *opStats { return &n.st }

// walkPlan visits the tree pre-order with depth.
func walkPlan(n planNode, depth int, fn func(planNode, int)) {
	fn(n, depth)
	for _, c := range n.children() {
		walkPlan(c, depth+1, fn)
	}
}

// bindSelect resolves the FROM and JOIN items against the catalog and
// builds the flat row environment. Two items resolving to the same
// binding name are rejected here, at plan time: silent last-wins
// shadowing in the row environment would misattribute every column
// reference.
func (db *DB) bindSelect(s *sqldb.Select) ([]source, *rowEnv, error) {
	var srcs []source
	for _, ref := range s.From {
		t := db.tables[ref.Table]
		if t == nil {
			return nil, nil, fmt.Errorf("%w: %q", ErrNoTable, ref.Table)
		}
		srcs = append(srcs, source{ref: ref, t: t})
	}
	for _, j := range s.Joins {
		t := db.tables[j.Ref.Table]
		if t == nil {
			return nil, nil, fmt.Errorf("%w: %q", ErrNoTable, j.Ref.Table)
		}
		srcs = append(srcs, source{ref: j.Ref, t: t, on: j.On, left: j.Left})
	}
	if len(srcs) == 0 {
		return nil, nil, fmt.Errorf("engine: SELECT without FROM")
	}
	env := &rowEnv{}
	offset := 0
	seen := make(map[string]bool)
	for _, src := range srcs {
		name := src.ref.Name()
		if seen[name] {
			return nil, nil, fmt.Errorf("engine: duplicate table binding %q", name)
		}
		seen[name] = true
		env.bindings = append(env.bindings, envBinding{
			name: name, cols: src.t.def.ColumnNames(), offset: offset,
		})
		offset += len(src.t.def.Columns)
	}
	return srcs, env, nil
}

// buildPlan turns a bound SELECT into the physical tree, joining the
// inner-join prefix in the order pick chooses (nil: plannerJoinOrder).
// The caller holds db.mu shared and the statement's row locks (index
// postings are consulted here).
func (db *DB) buildPlan(s *sqldb.Select, srcs []source, env *rowEnv, pick joinOrderFunc) (*physPlan, error) {
	// Classify WHERE conjuncts: single-binding predicates push into
	// their scan, two-sided equalities drive joins, the rest are
	// residual filters above the join tree.
	whereConjs := splitAnd(s.Where)
	bindingIdx := make(map[string]int, len(srcs))
	for i, src := range srcs {
		bindingIdx[src.ref.Name()] = i
	}
	leftProtected := make([]bool, len(srcs))
	for i, src := range srcs {
		if src.left {
			leftProtected[i] = true
		}
	}
	pushed := make([][]sqldb.Expr, len(srcs))
	var joinConjs []sqldb.Expr
	var residual []sqldb.Expr
	for _, c := range whereConjs {
		refs, err := exprRefs(c, env)
		if err != nil {
			return nil, err
		}
		maxB, only := -1, -1
		for name := range refs {
			bi, ok := bindingIdx[name]
			if !ok {
				return nil, fmt.Errorf("engine: unknown table %q in WHERE", name)
			}
			if bi > maxB {
				maxB = bi
			}
			only = bi
		}
		switch {
		case len(refs) == 0:
			residual = append(residual, c)
		case len(refs) == 1 && !leftProtected[only]:
			pushed[only] = append(pushed[only], c)
		case anyLeftAtOrBelow(leftProtected, maxB):
			// Mixed predicates involving LEFT-join sides stay residual to
			// preserve outer-join semantics.
			residual = append(residual, c)
		default:
			joinConjs = append(joinConjs, c)
		}
	}

	// Scan + join pipeline: the inner-join prefix is joined in the
	// order pick chooses (the planner's own choice when nil), the LEFT
	// suffix as written. Conjuncts the pipeline could not consume become
	// residual filters.
	node, leftover, err := db.planPipeline(srcs, env, pushed, joinConjs, pick)
	if err != nil {
		return nil, err
	}
	residual = append(residual, leftover...)
	if len(residual) > 0 {
		node = &filterNode{child: node, preds: residual,
			nodeBase: nodeBase{hint: shrink(node.estimate())}}
	}

	// Projection or aggregation: both emit len(items) output values
	// followed by len(OrderBy) sort keys.
	items, cols, err := expandItems(s, env)
	if err != nil {
		return nil, err
	}
	aggregated := len(s.GroupBy) > 0 || hasAggregate(s.Having)
	for _, it := range items {
		if it.Expr != nil && hasAggregate(it.Expr) {
			aggregated = true
		}
	}
	for _, oi := range s.OrderBy {
		if hasAggregate(oi.Expr) {
			aggregated = true
		}
	}
	if aggregated {
		hint := 1
		if len(s.GroupBy) > 0 {
			hint = shrink(node.estimate())
		}
		node = &aggNode{child: node, sel: s, items: items, cols: cols,
			nodeBase: nodeBase{hint: hint}}
	} else {
		node = &projectNode{child: node, sel: s, items: items, cols: cols,
			nodeBase: nodeBase{hint: node.estimate()}}
	}

	// Order: full sort, or a bounded top-k heap when a LIMIT caps the
	// output and no DISTINCT must run over the fully sorted stream.
	if len(s.OrderBy) > 0 {
		if s.Limit >= 0 && !s.Distinct {
			k := s.Limit + s.Offset
			node = &topKNode{child: node, orderBy: s.OrderBy, keyOffset: len(items), k: k,
				nodeBase: nodeBase{hint: minInt(k, node.estimate())}}
		} else {
			node = &sortNode{child: node, orderBy: s.OrderBy, keyOffset: len(items),
				nodeBase: nodeBase{hint: node.estimate()}}
		}
	}
	if s.Distinct {
		node = &distinctNode{child: node, nodeBase: nodeBase{hint: node.estimate()}}
	}
	if s.Offset > 0 {
		node = &offsetNode{child: node, n: s.Offset,
			nodeBase: nodeBase{hint: maxInt(node.estimate()-s.Offset, 0)}}
	}
	if s.Limit >= 0 {
		node = &limitNode{child: node, n: s.Limit,
			nodeBase: nodeBase{hint: minInt(s.Limit, node.estimate())}}
	}
	// Batch-at-a-time rewrite of vectorizable pipelines (vector.go);
	// vecOff is written under db.mu exclusive and read here under shared.
	if !db.vecOff {
		node = db.vectorize(node)
	}
	return &physPlan{root: node, cols: cols, env: env}, nil
}

// poolCond is one reorderable join condition: the conjunct, the
// bindings it references (as a list, and as a bitset for the greedy
// ordering), and its estimated selectivity.
type poolCond struct {
	expr  sqldb.Expr
	binds []int
	mask  uint64
	sel   float64
}

// joinOrderFunc chooses the order in which the reorderable inner-join
// prefix is joined: a permutation of 0..len(est)-1, given each prefix
// source's estimated scan output and the condition pool. Planning uses
// plannerJoinOrder; tests pass fixed orders to check that every order
// returns the same rows.
type joinOrderFunc func(est []float64, pool []poolCond) []int

// planPipeline is the statistics-driven join pipeline. The inner-join
// prefix (every source before the first LEFT join) is reorderable: its
// join conjuncts and inner ON conditions form one condition pool, pick
// orders the prefix from the estimated scan outputs, and buildJoinTree
// applies each condition at the first join that covers its bindings.
// LEFT joins and everything after them keep their written order. The
// flat row layout makes any order safe: every binding owns fixed column
// offsets, so join order never changes the output shape — only how
// many rows flow through the middle of the tree.
func (db *DB) planPipeline(srcs []source, env *rowEnv, pushed [][]sqldb.Expr, joinConjs []sqldb.Expr, pick joinOrderFunc) (planNode, []sqldb.Expr, error) {
	prefix := len(srcs)
	for i, src := range srcs {
		if src.left {
			prefix = i
			break
		}
	}
	bindIdx := make(map[string]int, len(env.bindings))
	for i, b := range env.bindings {
		bindIdx[b.name] = i
	}
	// Local pushdown lists: single-binding inner ON conditions fold into
	// their source's scan so selectivity estimation and index selection
	// see them (semantically identical for inner joins).
	pushedLoc := make([][]sqldb.Expr, len(srcs))
	for i := range pushed {
		pushedLoc[i] = append([]sqldb.Expr(nil), pushed[i]...)
	}
	var pool []poolCond
	var constConds []sqldb.Expr
	addCond := func(c sqldb.Expr) error {
		refs, err := exprRefs(c, env)
		if err != nil {
			return err
		}
		pc := poolCond{expr: c, binds: make([]int, 0, len(refs))}
		for name := range refs {
			bi, ok := bindIdx[name]
			if !ok {
				return fmt.Errorf("engine: unknown table %q in join condition", name)
			}
			pc.binds = append(pc.binds, bi)
			pc.mask |= 1 << bi
		}
		switch {
		case len(refs) == 0:
			constConds = append(constConds, c)
		case len(refs) == 1 && !srcs[pc.binds[0]].left:
			pushedLoc[pc.binds[0]] = append(pushedLoc[pc.binds[0]], c)
		default:
			pc.sel = condSelectivity(c, env, srcs)
			pool = append(pool, pc)
		}
		return nil
	}
	for _, c := range joinConjs {
		if err := addCond(c); err != nil {
			return nil, nil, err
		}
	}
	for i := 1; i < prefix; i++ {
		for _, c := range splitAnd(srcs[i].on) {
			if err := addCond(c); err != nil {
				return nil, nil, err
			}
		}
	}

	// Estimated post-pushdown scan outputs drive the ordering.
	est := make([]float64, prefix)
	for i := 0; i < prefix; i++ {
		est[i] = float64(len(srcs[i].ver.rows)) * predsSelectivity(pushedLoc[i], srcs[i])
	}
	if pick == nil {
		pick = plannerJoinOrder
	}
	return db.buildJoinTree(pick(est, pool), srcs, env, pushedLoc, constConds, pool)
}

// buildJoinTree scans and joins the inner-join prefix in the given
// order, then the LEFT-join suffix as written. Each pool condition is
// applied at the first join after which all its bindings are joined;
// the ones never covered (conditions over suffix bindings) are returned
// for the residual filter.
func (db *DB) buildJoinTree(order []int, srcs []source, env *rowEnv, pushed [][]sqldb.Expr, constConds []sqldb.Expr, pool []poolCond) (planNode, []sqldb.Expr, error) {
	joined := make([]bool, len(srcs))
	consumed := make([]bool, len(pool))
	var node planNode
	for step, idx := range order {
		preds := pushed[idx]
		if step == 0 {
			preds = append(append([]sqldb.Expr(nil), preds...), constConds...)
		}
		scan, err := db.planScan(srcs[idx], env, preds)
		if err != nil {
			return nil, nil, err
		}
		joined[idx] = true
		if step == 0 {
			node = scan
			continue
		}
		var conds []sqldb.Expr
		for ci, pc := range pool {
			if !consumed[ci] && allJoined(pc.binds, joined) {
				consumed[ci] = true
				conds = append(conds, pc.expr)
			}
		}
		node = planJoin(node, scan, idx, conds, env, false, srcs)
	}
	// Pushed predicates on left-protected sources were already routed to
	// residual upstream.
	for bi := len(order); bi < len(srcs); bi++ {
		src := srcs[bi]
		scan, err := db.planScan(src, env, pushed[bi])
		if err != nil {
			return nil, nil, err
		}
		node = planJoin(node, scan, bi, splitAnd(src.on), env, src.left, srcs)
	}
	var leftover []sqldb.Expr
	for ci := range pool {
		if !consumed[ci] {
			leftover = append(leftover, pool[ci].expr)
		}
	}
	return node, leftover, nil
}

func allJoined(binds []int, joined []bool) bool {
	for _, b := range binds {
		if !joined[b] {
			return false
		}
	}
	return true
}

// writtenOrder is the identity join order: the prefix as written.
func writtenOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// plannerJoinOrder is the planner's choice: greedy from three sources
// on, where order starts to matter, up to the 64 the condition bitsets
// can address; the written order otherwise.
func plannerJoinOrder(est []float64, pool []poolCond) []int {
	if len(est) < 3 || len(est) > 64 {
		return writtenOrder(len(est))
	}
	return greedyJoinOrder(est, pool)
}

// greedyJoinOrder orders the reorderable prefix: start at the smallest
// estimated scan, then repeatedly add the source with the smallest
// estimated join output, preferring sources connected to the joined set
// by at least one pool condition (cross products only when forced).
func greedyJoinOrder(est []float64, pool []poolCond) []int {
	prefix := len(est)
	order := make([]int, 0, prefix)
	used := make([]bool, prefix)
	start := 0
	for i := 1; i < prefix; i++ {
		if est[i] < est[start] {
			start = i
		}
	}
	order = append(order, start)
	used[start] = true
	curMask := uint64(1) << start
	curEst := est[start]
	consumed := make([]bool, len(pool))
	for len(order) < prefix {
		bestIdx, bestEst, bestConn := -1, 0.0, false
		for i := 0; i < prefix; i++ {
			if used[i] {
				continue
			}
			newMask := curMask | 1<<i
			join := curEst * est[i]
			conn := false
			for ci := range pool {
				if consumed[ci] || pool[ci].mask&(1<<i) == 0 || pool[ci].mask&^newMask != 0 {
					continue
				}
				conn = true
				join *= pool[ci].sel
			}
			better := bestIdx == -1 ||
				(conn && !bestConn) ||
				(conn == bestConn && join < bestEst)
			if better {
				bestIdx, bestEst, bestConn = i, join, conn
			}
		}
		order = append(order, bestIdx)
		used[bestIdx] = true
		curMask |= 1 << bestIdx
		curEst = bestEst
		for ci := range pool {
			if !consumed[ci] && pool[ci].mask&^curMask == 0 {
				consumed[ci] = true
			}
		}
	}
	return order
}

// planScan chooses the access path for one source: an index probe for
// an equality predicate set covered by a hash index, a window over an
// ordered index for range predicates, else a sequential scan. A range
// window covering most of the table demotes to a sequential scan (the
// position indirection buys nothing at that point). Pushed predicates
// not consumed by the access path are re-checked per row, and the
// cardinality hint reflects their estimated selectivity, so executed
// EXPLAIN compares a real estimate against the actual row count.
func (db *DB) planScan(src source, env *rowEnv, preds []sqldb.Expr) (*scanNode, error) {
	bi := -1
	for i, b := range env.bindings {
		if b.name == src.ref.Name() {
			bi = i
			break
		}
	}
	n := &scanNode{src: src, bind: env.bindings[bi], width: env.width()}
	live := len(src.ver.rows)
	eqCols, eqVals, restPreds, err := extractEqualities(preds, src, env)
	if err != nil {
		return nil, err
	}
	if len(eqCols) > 0 {
		if ix := src.t.findIndex(eqCols); ix != nil {
			// A consulted index with no postings must yield an empty scan,
			// not a fallback to the full scan: the consumed equality
			// predicates are gone from restPreds. The postings are copied —
			// writers extend and compact the live slice in place after the
			// open-time locks release, and this plan outlives them.
			pos := append([]int(nil), ix.m[encodeKey(eqVals)]...)
			if pos == nil {
				pos = []int{}
			}
			n.access, n.indexName, n.positions, n.preds = accessIndex, ix.name, pos, restPreds
			n.hint = clampEst(float64(len(pos)) * predsSelectivity(restPreds, src))
			return n, nil
		}
	}
	// Range scan via an ordered index; every predicate is still
	// re-checked per row, so the window is purely an optimization.
	if ix, bounds, ok := extractRange(preds, src); ok {
		pos := ix.scan(src.t, bounds)
		if pos == nil {
			pos = []int{}
		}
		if float64(len(pos)) <= rangeDemoteFrac*float64(live) {
			n.access, n.indexName, n.positions, n.preds = accessRange, ix.name, pos, preds
			n.hint = len(pos)
			return n, nil
		}
	}
	n.access, n.preds = accessSeq, preds
	n.hint = clampEst(float64(live) * predsSelectivity(preds, src))
	return n, nil
}

// rangeDemoteFrac is the window-coverage fraction past which a range
// scan demotes to a sequential scan.
const rangeDemoteFrac = 0.8

// planJoin builds the join operator: a hash join when at least one
// equi-condition links the inner binding to the joined ones, else a
// (filtered) nested loop. The cardinality hint is the estimated join
// output (outer x inner scaled by each condition's selectivity) and the
// hash build side goes to whichever input is estimated smaller (LEFT
// joins always stream the outer — unmatched-row emission depends on
// it).
func planJoin(outer planNode, inner *scanNode, bi int, conds []sqldb.Expr, env *rowEnv, left bool, srcs []source) planNode {
	b := env.bindings[bi]
	equis, others := classifyJoinConds(conds, b, env)
	oe, ie := float64(outer.estimate()), float64(inner.estimate())
	out := oe * ie
	for _, e := range equis {
		out *= equiSelectivity(env, srcs, e)
	}
	for range others {
		out *= defaultRangeSel
	}
	if left && out < oe {
		out = oe // every outer row is emitted at least once
	}
	if len(equis) > 0 {
		n := &hashJoinNode{
			outer: outer, inner: inner, equis: equis, others: others,
			left: left, bind: b, keysDesc: equiKeysDesc(env, equis),
			nodeBase: nodeBase{hint: clampEst(out)},
		}
		if !left && oe < ie {
			n.buildOuter = true
		}
		return n
	}
	return &nlJoinNode{
		outer: outer, inner: inner, conds: conds, left: left, bind: b,
		nodeBase: nodeBase{hint: clampEst(out)},
	}
}

// classifyJoinConds splits join conditions into equi pairs keyed for
// hashing (one side in the inner binding b, the other outside it) and
// the rest, which re-check per merged row.
func classifyJoinConds(conds []sqldb.Expr, b envBinding, env *rowEnv) ([]equiPair, []sqldb.Expr) {
	var equis []equiPair
	var others []sqldb.Expr
	for _, c := range conds {
		bin, ok := c.(*sqldb.Bin)
		if !ok || bin.Op != sqldb.OpEq {
			others = append(others, c)
			continue
		}
		lc, lok := bin.L.(*sqldb.Col)
		rc, rok := bin.R.(*sqldb.Col)
		if !lok || !rok {
			others = append(others, c)
			continue
		}
		li, lerr := env.resolve(lc.Table, lc.Name)
		ri, rerr := env.resolve(rc.Table, rc.Name)
		if lerr != nil || rerr != nil {
			others = append(others, c)
			continue
		}
		lIsInner := li >= b.offset && li < b.offset+len(b.cols)
		rIsInner := ri >= b.offset && ri < b.offset+len(b.cols)
		switch {
		case lIsInner && !rIsInner:
			equis = append(equis, equiPair{outerIdx: ri, innerIdx: li})
		case rIsInner && !lIsInner:
			equis = append(equis, equiPair{outerIdx: li, innerIdx: ri})
		default:
			others = append(others, c)
		}
	}
	return equis, others
}

// equiKeysDesc renders the hash keys for EXPLAIN.
func equiKeysDesc(env *rowEnv, equis []equiPair) string {
	keys := make([]string, len(equis))
	for i, e := range equis {
		keys[i] = flatColName(env, e.outerIdx) + " = " + flatColName(env, e.innerIdx)
	}
	return strings.Join(keys, ", ")
}

// flatBindingIdx maps a flat row index back to its binding index.
func flatBindingIdx(env *rowEnv, idx int) int {
	for i, b := range env.bindings {
		if idx >= b.offset && idx < b.offset+len(b.cols) {
			return i
		}
	}
	return -1
}

// equiSelectivity estimates a column-equality join condition as
// 1/max(distinct(left), distinct(right)) — the textbook estimate, with
// distinct counts from ANALYZE statistics, dictionaries or live row
// counts (distinctOf's fallback chain).
func equiSelectivity(env *rowEnv, srcs []source, e equiPair) float64 {
	d := 1.0
	for _, idx := range [2]int{e.outerIdx, e.innerIdx} {
		bi := flatBindingIdx(env, idx)
		if bi < 0 || bi >= len(srcs) {
			continue
		}
		b := env.bindings[bi]
		if dv := distinctOf(srcs[bi], b.cols[idx-b.offset]); dv > d {
			d = dv
		}
	}
	return 1 / d
}

// condSelectivity estimates one pool condition for join ordering.
func condSelectivity(c sqldb.Expr, env *rowEnv, srcs []source) float64 {
	if bin, ok := c.(*sqldb.Bin); ok && bin.Op == sqldb.OpEq {
		lc, lok := bin.L.(*sqldb.Col)
		rc, rok := bin.R.(*sqldb.Col)
		if lok && rok {
			li, lerr := env.resolve(lc.Table, lc.Name)
			ri, rerr := env.resolve(rc.Table, rc.Name)
			if lerr == nil && rerr == nil {
				return equiSelectivity(env, srcs, equiPair{outerIdx: li, innerIdx: ri})
			}
		}
	}
	return defaultRangeSel
}

// clampEst rounds a float estimate into a non-negative int hint.
func clampEst(f float64) int {
	const maxHint = int(^uint(0) >> 1)
	if f <= 0 {
		return 0
	}
	if f >= float64(maxHint) {
		return maxHint
	}
	return int(f + 0.5)
}

// equiPair links an outer-side flat column to an inner-side flat
// column for hash-join keying.
type equiPair struct{ outerIdx, innerIdx int }

// flatColName renders a flat row index as binding.column for EXPLAIN.
func flatColName(env *rowEnv, idx int) string {
	for _, b := range env.bindings {
		if idx >= b.offset && idx < b.offset+len(b.cols) {
			return b.name + "." + b.cols[idx-b.offset]
		}
	}
	return fmt.Sprintf("col#%d", idx)
}

// shrink is the planner's guess for a filtering operator's output.
func shrink(in int) int {
	out := in / 3
	if out < 1 {
		out = 1
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func anyLeftAtOrBelow(leftProtected []bool, maxB int) bool {
	for i := 0; i <= maxB && i < len(leftProtected); i++ {
		if leftProtected[i] {
			return true
		}
	}
	return false
}
