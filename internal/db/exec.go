package db

import (
	"fmt"
	"sort"
	"strings"

	"txcache/internal/interval"
	"txcache/internal/mvcc"
	"txcache/internal/sql"
)

// execCtx carries per-statement state: parameters plus, for tracked
// read-only queries, the accumulating result-tuple validity, invalidity
// mask, and tag set (paper §5.2–5.3). It lives inside the transaction's
// pooled scratch and is reset in place per statement.
type execCtx struct {
	tx    *Tx
	sc    *txScratch
	args  []sql.Value
	track bool

	resultIV interval.Interval
	mask     interval.Mask
	tags     tagSet

	// Scan emission state (set by scanTableInto for the duration of one
	// table scan, so per-row emission needs no closure allocation).
	emitTable *Table
	emitConds []localCond
	emitDst   []scanRow
}

func (tx *Tx) newExecCtx(args []sql.Value) *execCtx {
	x := &tx.sc.exec
	x.tx = tx
	x.sc = tx.sc
	x.args = args
	x.track = tx.ro && tx.e.track
	x.resultIV = interval.All
	x.mask.Reset()
	if x.track {
		x.tags.reset(tx.e.wcLim)
	}
	return x
}

// observeVisible intersects a returned tuple's validity into the result
// interval.
func (x *execCtx) observeVisible(iv interval.Interval) {
	if x.track {
		x.resultIV = x.resultIV.Intersect(iv)
	}
}

// observeInvisible adds a predicate-matching but snapshot-invisible tuple's
// interval to the invalidity mask (a potential phantom).
func (x *execCtx) observeInvisible(iv interval.Interval) {
	if x.track {
		x.mask.Add(iv)
	}
}

// finish computes the final validity interval: the component of the result
// validity containing the snapshot, minus the invalidity mask.
func (x *execCtx) finish(r *Result) {
	if !x.track {
		return
	}
	r.Validity = x.mask.Subtract(x.resultIV, x.tx.snap)
	r.Tags = x.tags.tags()
}

// resolve evaluates a scalar expression that must be a literal or
// parameter.
func (x *execCtx) resolve(e sql.Expr) (sql.Value, error) {
	switch e.Kind {
	case sql.ELit:
		return e.Lit, nil
	case sql.EParam:
		if e.Param >= len(x.args) {
			return nil, fmt.Errorf("db: statement requires at least %d parameters, got %d", e.Param+1, len(x.args))
		}
		return x.args[e.Param], nil
	default:
		return nil, fmt.Errorf("db: expected literal or parameter")
	}
}

// localCond is a WHERE conjunct bound to column positions of one table.
type localCond struct {
	colPos    int
	op        sql.CompareOp
	val       sql.Value
	valCol    int // >= 0: compare against another column of the same row
	in        []sql.Value
	isNull    bool
	isNotNull bool
}

func evalLocal(conds []localCond, row []sql.Value) bool {
	for _, c := range conds {
		v := row[c.colPos]
		switch {
		case c.isNull:
			if v != nil {
				return false
			}
		case c.isNotNull:
			if v == nil {
				return false
			}
		case len(c.in) > 0:
			ok := false
			for _, cand := range c.in {
				if sql.Equal(v, cand) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		default:
			rhs := c.val
			if c.valCol >= 0 {
				rhs = row[c.valCol]
			}
			if v == nil || rhs == nil {
				return false
			}
			cmp := sql.Compare(v, rhs)
			var ok bool
			switch c.op {
			case sql.OpEq:
				ok = cmp == 0
			case sql.OpNe:
				ok = cmp != 0
			case sql.OpLt:
				ok = cmp < 0
			case sql.OpLe:
				ok = cmp <= 0
			case sql.OpGt:
				ok = cmp > 0
			case sql.OpGe:
				ok = cmp >= 0
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// bindLocal converts sql.Conds that reference only table t (under alias) to
// localConds, appending to dst (a reusable scratch slice for the common
// single-table statement). Conds referencing other bindings are returned in
// rest.
func (x *execCtx) bindLocal(dst []localCond, t *Table, alias string, conds []sql.Cond) (local []localCond, rest []sql.Cond, err error) {
	local = dst
	for _, c := range conds {
		if c.Left.Kind != sql.ECol {
			return nil, nil, fmt.Errorf("db: WHERE condition must start with a column reference")
		}
		if !colBelongs(c.Left.Col, t, alias) {
			rest = append(rest, c)
			continue
		}
		pos, ok := t.colPos[c.Left.Col.Column]
		if !ok {
			return nil, nil, fmt.Errorf("db: no column %q in %s", c.Left.Col.Column, t.name)
		}
		lc := localCond{colPos: pos, op: c.Op, valCol: -1, isNull: c.IsNull, isNotNull: c.IsNotNull}
		switch {
		case c.IsNull || c.IsNotNull:
		case len(c.In) > 0:
			for _, e := range c.In {
				v, err := x.resolve(e)
				if err != nil {
					return nil, nil, err
				}
				lc.in = append(lc.in, v)
			}
		case c.Right.Kind == sql.ECol:
			if !colBelongs(c.Right.Col, t, alias) {
				rest = append(rest, c)
				continue
			}
			rpos, ok := t.colPos[c.Right.Col.Column]
			if !ok {
				return nil, nil, fmt.Errorf("db: no column %q in %s", c.Right.Col.Column, t.name)
			}
			lc.valCol = rpos
		default:
			v, err := x.resolve(c.Right)
			if err != nil {
				return nil, nil, err
			}
			lc.val = v
		}
		local = append(local, lc)
	}
	return local, rest, nil
}

func colBelongs(c sql.ColRef, t *Table, alias string) bool {
	if c.Table == "" {
		_, ok := t.colPos[c.Column]
		return ok
	}
	return c.Table == alias || c.Table == t.name
}

// scanRow is one row produced by a table scan; synthetic IDs (high bit set)
// denote rows from the transaction's own uncommitted inserts.
type scanRow struct {
	id   uint64
	data []sql.Value
}

// scanTableInto appends the rows of t matching conds to dst, visible at
// the transaction's snapshot with the transaction's own writes overlaid,
// and returns the extended slice. Callers pass a reusable scratch buffer;
// the row payloads alias the version store, never the buffer, so buffers
// can be recycled as soon as their scanRow headers have been consumed. For
// tracked queries the scan also accumulates validity intervals, the
// invalidity mask, and access-path invalidation tags.
//
// Per paper §5.2, the predicate is evaluated before the visibility check so
// that predicate-failing dead tuples do not pollute the invalidity mask.
func (x *execCtx) scanTableInto(dst []scanRow, t *Table, conds []localCond) []scanRow {
	// Plan: pick an index-equality access if possible, then an index range,
	// otherwise a sequential scan.
	var eqIdx *Index
	var eqVals []sql.Value
	var eqOne [1]sql.Value
	var rangeIdx *Index
	var rangeLo, rangeHi []byte
	for _, c := range conds {
		if c.valCol >= 0 || c.isNull || c.isNotNull {
			continue
		}
		col := t.cols[c.colPos].Name
		idx := t.indexes[col]
		if idx == nil {
			continue
		}
		if c.op == sql.OpEq && c.in == nil && c.val != nil {
			eqOne[0] = c.val
			eqIdx, eqVals = idx, eqOne[:]
			break // equality is always the best choice
		}
		if len(c.in) > 0 {
			eqIdx, eqVals = idx, c.in
			break
		}
		if rangeIdx == nil && (c.op == sql.OpLt || c.op == sql.OpLe || c.op == sql.OpGt || c.op == sql.OpGe) {
			rangeIdx = idx
			switch c.op {
			case sql.OpGt, sql.OpGe:
				rangeLo = sql.EncodeKey(nil, c.val)
			case sql.OpLt, sql.OpLe:
				rangeHi = sql.EncodeKey(nil, c.val)
			}
		}
	}

	x.emitTable, x.emitConds, x.emitDst = t, conds, dst

	switch {
	case eqIdx != nil:
		x.sc.seen.reset()
		for _, v := range eqVals {
			if v == nil {
				continue
			}
			if x.track {
				x.tags.addKey(t, eqIdx.column, v)
			}
			x.sc.keyBuf = sql.EncodeKey(x.sc.keyBuf[:0], v)
			ids := eqIdx.tree.Get(x.sc.keyBuf)
			for _, id := range ids {
				if x.sc.seen.insert(id) {
					x.emit(id, t.store.Chain(mvcc.RowID(id)))
				}
			}
		}
	case rangeIdx != nil:
		// Index range scans receive a wildcard tag: a new row anywhere in
		// the range (indeed, anywhere in the table) may change the result.
		if x.track {
			x.tags.add(t.wildTag)
		}
		ids := x.sc.idBuf[:0]
		rangeIdx.tree.AscendRange(rangeLo, rangeHi, func(_ []byte, posts []uint64) bool {
			ids = append(ids, posts...)
			return true
		})
		x.sc.idBuf = ids
		x.sc.seen.reset()
		for _, id := range ids {
			if x.sc.seen.insert(id) {
				x.emit(id, t.store.Chain(mvcc.RowID(id)))
			}
		}
	default:
		if x.track {
			x.tags.add(t.wildTag)
		}
		t.store.Scan(func(id mvcc.RowID, chain []mvcc.Version) bool {
			x.emit(uint64(id), chain)
			return true
		})
	}

	// The transaction's own uncommitted inserts.
	for _, ins := range x.tx.sc.inserted[t.name] {
		if !ins.deleted && evalLocal(conds, ins.data) {
			x.emitDst = append(x.emitDst, scanRow{ins.tempID, ins.data})
		}
	}
	dst = x.emitDst
	x.emitTable, x.emitConds, x.emitDst = nil, nil, nil
	return dst
}

// emit filters one row's version chain into the scan output (see
// scanTableInto). The chain is the store's own memory (mvcc.Store.Chain,
// Scan), good while the statement holds the table's lock; a posting always
// has one, since a row's versions and its index entries come and go in one
// critical section. It is a method rather than a closure so per-scan setup
// stays off the heap.
func (x *execCtx) emit(id uint64, chain []mvcc.Version) {
	t, conds := x.emitTable, x.emitConds
	x.touchRow(t, id)
	if w, ok := x.tx.sc.writes[t.name][id]; ok {
		// Overlay: this transaction already rewrote the row.
		if w.op == opUpdate && evalLocal(conds, w.data) {
			x.emitDst = append(x.emitDst, scanRow{id, w.data})
		}
		return
	}
	for i := range chain {
		v := &chain[i]
		if x.tx.e.eagerVis {
			// Stock ordering (ablation): visibility first. Every
			// invisible tuple scanned widens the invalidity mask.
			if !v.VisibleAt(x.tx.snap) {
				x.observeInvisible(v.Interval())
				continue
			}
			if evalLocal(conds, v.Data.([]sql.Value)) {
				x.emitDst = append(x.emitDst, scanRow{id, v.Data.([]sql.Value)})
				x.observeVisible(v.Interval())
			}
			continue
		}
		if !evalLocal(conds, v.Data.([]sql.Value)) {
			continue // predicate first (§5.2)
		}
		if v.VisibleAt(x.tx.snap) {
			x.emitDst = append(x.emitDst, scanRow{id, v.Data.([]sql.Value)})
			x.observeVisible(v.Interval())
		} else {
			x.observeInvisible(v.Interval())
		}
	}
}

// touchRow charges the buffer pool for the heap page holding the row.
func (x *execCtx) touchRow(t *Table, id uint64) {
	x.tx.e.pool.touch(t.name, id/rowsPerPage)
}

// binding is one table term of a SELECT (FROM table or a JOIN).
type binding struct {
	t     *Table
	alias string
}

func (b binding) matches(c sql.ColRef) bool { return colBelongs(c, b.t, b.alias) }

// jrow is a joined row: one value slice per binding.
type jrow struct {
	vals [][]sql.Value
}

// runSelect executes a parsed SELECT. Caller holds the statement's table
// locks (resolved in ls) shared.
func (tx *Tx) runSelect(sel *sql.Select, ls tableLockSet, args []sql.Value) (*Result, error) {
	x := tx.newExecCtx(args)

	base, err := ls.get(sel.Table)
	if err != nil {
		return nil, err
	}
	bindings := append(x.sc.bindBuf[:0], binding{base, aliasOf(sel.Table, sel.Alias)})
	for _, jc := range sel.Joins {
		jt, err := ls.get(jc.Table)
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, binding{jt, aliasOf(jc.Table, jc.Alias)})
	}
	x.sc.bindBuf = bindings

	// Split WHERE into per-binding local conditions; leftovers are
	// cross-binding conditions evaluated after the joins. The base
	// binding's conditions live in scratch (joins are the rare case).
	remaining := sel.Where
	localFor := x.sc.localFor[:0]
	for i, b := range bindings {
		var dst []localCond
		if i == 0 {
			dst = x.sc.condBuf[:0]
		}
		var local []localCond
		local, remaining, err = x.bindLocal(dst, b.t, b.alias, remaining)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			x.sc.condBuf = local
		}
		localFor = append(localFor, local)
	}
	x.sc.localFor = localFor

	// Base scan. The jrow headers for the single-binding case are carved
	// out of one scratch arena instead of one allocation per row.
	x.sc.rowBuf = x.scanTableInto(x.sc.rowBuf[:0], base, localFor[0])
	srs := x.sc.rowBuf
	rows := x.sc.rows[:0]
	arena := x.sc.arena[:0]
	if cap(arena) < len(srs) {
		arena = make([][]sql.Value, 0, len(srs))
	}
	for _, sr := range srs {
		arena = append(arena, sr.data)
		rows = append(rows, jrow{vals: arena[len(arena)-1:]})
	}
	x.sc.arena = arena

	// Nested-loop joins, inner side by index when available.
	for ji, jc := range sel.Joins {
		bi := ji + 1
		inner := bindings[bi]
		// Resolve the outer side of the ON condition.
		outerCol, innerCol := jc.Left, jc.Right
		if bindings[bi].matches(jc.Left) && !bindings[bi].matches(jc.Right) {
			outerCol, innerCol = jc.Right, jc.Left
		}
		outerBind, outerPos, err := resolveCol(bindings[:bi], outerCol)
		if err != nil {
			return nil, err
		}
		innerPos, ok := inner.t.colPos[innerCol.Column]
		if !ok || !inner.matches(innerCol) {
			return nil, fmt.Errorf("db: JOIN ON column %s does not belong to %s", innerCol, inner.alias)
		}

		// The probe condition vector is built once per join; only the
		// probed value changes per outer row.
		probe := append(x.sc.probeBuf[:0], localCond{colPos: innerPos, op: sql.OpEq, valCol: -1})
		probe = append(probe, localFor[bi]...)
		x.sc.probeBuf = probe

		var next []jrow
		for _, r := range rows {
			v := r.vals[outerBind][outerPos]
			if v == nil {
				continue
			}
			// scanTableInto plans each probe: an equality index on the
			// inner join column when one exists, a sequential scan
			// otherwise.
			probe[0].val = v
			x.sc.joinBuf = x.scanTableInto(x.sc.joinBuf[:0], inner.t, probe)
			for _, m := range x.sc.joinBuf {
				nv := make([][]sql.Value, len(r.vals)+1)
				copy(nv, r.vals)
				nv[len(r.vals)] = m.data
				next = append(next, jrow{vals: nv})
			}
		}
		rows = next
	}

	// Cross-binding conditions.
	if len(remaining) > 0 {
		kept := rows[:0]
		for _, r := range rows {
			ok, err := evalCross(bindings, remaining, r, x)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// Retain the (possibly regrown) working set for the next statement.
	if sel.Joins == nil {
		x.sc.rows = rows
	}

	res := &Result{}
	if hasAggregates(sel) {
		if err := projectAggregates(sel, bindings, rows, res); err != nil {
			return nil, err
		}
	} else {
		if err := x.projectRows(sel, bindings, rows, res); err != nil {
			return nil, err
		}
	}
	x.finish(res)
	return res, nil
}

func aliasOf(table, alias string) string {
	if alias != "" {
		return alias
	}
	return table
}

// resolveCol finds which binding a column reference belongs to.
func resolveCol(bindings []binding, c sql.ColRef) (int, int, error) {
	found := -1
	pos := -1
	for i, b := range bindings {
		if !b.matches(c) {
			continue
		}
		if found >= 0 {
			return 0, 0, fmt.Errorf("db: ambiguous column %s", c)
		}
		found = i
		pos = b.t.colPos[c.Column]
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("db: unknown column %s", c)
	}
	return found, pos, nil
}

func evalCross(bindings []binding, conds []sql.Cond, r jrow, x *execCtx) (bool, error) {
	for _, c := range conds {
		lb, lp, err := resolveCol(bindings, c.Left.Col)
		if err != nil {
			return false, err
		}
		lv := r.vals[lb][lp]
		var rv sql.Value
		if c.Right.Kind == sql.ECol {
			rb, rp, err := resolveCol(bindings, c.Right.Col)
			if err != nil {
				return false, err
			}
			rv = r.vals[rb][rp]
		} else {
			rv, err = x.resolve(c.Right)
			if err != nil {
				return false, err
			}
		}
		switch {
		case c.IsNull:
			if lv != nil {
				return false, nil
			}
			continue
		case c.IsNotNull:
			if lv == nil {
				return false, nil
			}
			continue
		case len(c.In) > 0:
			ok := false
			for _, e := range c.In {
				v, err := x.resolve(e)
				if err != nil {
					return false, err
				}
				if sql.Equal(lv, v) {
					ok = true
					break
				}
			}
			if !ok {
				return false, nil
			}
			continue
		}
		if lv == nil || rv == nil {
			return false, nil
		}
		cmp := sql.Compare(lv, rv)
		var ok bool
		switch c.Op {
		case sql.OpEq:
			ok = cmp == 0
		case sql.OpNe:
			ok = cmp != 0
		case sql.OpLt:
			ok = cmp < 0
		case sql.OpLe:
			ok = cmp <= 0
		case sql.OpGt:
			ok = cmp > 0
		case sql.OpGe:
			ok = cmp >= 0
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func hasAggregates(sel *sql.Select) bool {
	for _, e := range sel.Exprs {
		if e.Agg != sql.AggNone {
			return true
		}
	}
	return false
}

func projectAggregates(sel *sql.Select, bindings []binding, rows []jrow, res *Result) error {
	out := make([]sql.Value, len(sel.Exprs))
	for i, se := range sel.Exprs {
		if se.Agg == sql.AggNone {
			return fmt.Errorf("db: mixing aggregates and plain columns requires GROUP BY, which is unsupported")
		}
		name := strings.ToLower([...]string{"", "count", "max", "min", "sum", "avg"}[se.Agg])
		if se.Alias != "" {
			name = se.Alias
		}
		res.Cols = append(res.Cols, name)
		if se.Agg == sql.AggCount && se.Star {
			out[i] = int64(len(rows))
			continue
		}
		bi, pos, err := resolveCol(bindings, se.Col)
		if err != nil {
			return err
		}
		var acc sql.Value
		var sum float64
		var allInt = true
		n := 0
		for _, r := range rows {
			v := r.vals[bi][pos]
			if v == nil {
				continue
			}
			n++
			switch se.Agg {
			case sql.AggCount:
			case sql.AggMax:
				if acc == nil || sql.Compare(v, acc) > 0 {
					acc = v
				}
			case sql.AggMin:
				if acc == nil || sql.Compare(v, acc) < 0 {
					acc = v
				}
			case sql.AggSum, sql.AggAvg:
				switch num := v.(type) {
				case int64:
					sum += float64(num)
				case float64:
					sum += num
					allInt = false
				default:
					return fmt.Errorf("db: SUM/AVG over non-numeric column %s", se.Col)
				}
			}
		}
		switch se.Agg {
		case sql.AggCount:
			out[i] = int64(n)
		case sql.AggMax, sql.AggMin:
			out[i] = acc // nil when no rows
		case sql.AggSum:
			if n == 0 {
				out[i] = nil
			} else if allInt {
				out[i] = int64(sum)
			} else {
				out[i] = sum
			}
		case sql.AggAvg:
			if n == 0 {
				out[i] = nil
			} else {
				out[i] = sum / float64(n)
			}
		}
	}
	res.Rows = [][]sql.Value{out}
	return nil
}

// proj addresses one output column: binding index and column position.
type proj struct {
	bi, pos int
}

// selPlan is the cached projection plan for one parsed SELECT against one
// engine: output column names, projection positions, and ORDER BY keys.
// Parsed statements are shared and immutable, and every execution of a
// given *sql.Select against the same engine resolves to the same tables,
// so the plan is computed once and reused — the per-query Cols and projs
// allocations disappear. Plans are cached per engine because the same
// statement text (and thus the same shared AST) may run against engines
// with different schemas.
type selPlan struct {
	cols      []string // shared across Results; callers must not mutate
	projs     []proj
	orderKeys []proj
}

// selPlanFor returns the cached plan for sel, computing it on first use.
func (x *execCtx) selPlanFor(sel *sql.Select, bindings []binding) (*selPlan, error) {
	if p, ok := x.tx.e.planCache.Load(sel); ok {
		return p.(*selPlan), nil
	}
	p := &selPlan{}
	if sel.Star {
		for bi, b := range bindings {
			for pos, c := range b.t.cols {
				p.projs = append(p.projs, proj{bi, pos})
				p.cols = append(p.cols, c.Name)
			}
		}
	} else {
		for _, se := range sel.Exprs {
			bi, pos, err := resolveCol(bindings, se.Col)
			if err != nil {
				return nil, err
			}
			p.projs = append(p.projs, proj{bi, pos})
			name := se.Col.Column
			if se.Alias != "" {
				name = se.Alias
			}
			p.cols = append(p.cols, name)
		}
	}
	for _, ob := range sel.OrderBy {
		bi, pos, err := resolveCol(bindings, ob.Col)
		if err != nil {
			return nil, err
		}
		p.orderKeys = append(p.orderKeys, proj{bi, pos})
	}
	x.tx.e.planCache.Store(sel, p)
	return p, nil
}

func (x *execCtx) projectRows(sel *sql.Select, bindings []binding, rows []jrow, res *Result) error {
	plan, err := x.selPlanFor(sel, bindings)
	if err != nil {
		return err
	}
	projs := plan.projs
	res.Cols = plan.cols

	// ORDER BY before projection so sort keys need not be selected.
	if len(plan.orderKeys) > 0 {
		keys := plan.orderKeys
		sort.SliceStable(rows, func(a, b int) bool {
			for i, k := range keys {
				cmp := sql.Compare(rows[a].vals[k.bi][k.pos], rows[b].vals[k.bi][k.pos])
				if cmp == 0 {
					continue
				}
				if sel.OrderBy[i].Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}

	// Project.
	outRows := make([][]sql.Value, 0, len(rows))
	var seen map[string]bool
	if sel.Distinct {
		seen = map[string]bool{}
	}
	for _, r := range rows {
		out := make([]sql.Value, len(projs))
		for i, p := range projs {
			out[i] = r.vals[p.bi][p.pos]
		}
		if sel.Distinct {
			var kb []byte
			for _, v := range out {
				kb = sql.EncodeKey(kb, v)
			}
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		outRows = append(outRows, out)
	}

	// OFFSET / LIMIT.
	if sel.Offset > 0 {
		if sel.Offset >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(outRows) {
		outRows = outRows[:sel.Limit]
	}
	res.Rows = outRows
	return nil
}
