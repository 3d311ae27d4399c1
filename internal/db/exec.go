package db

import (
	"fmt"
	"slices"
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
// parameter. This is where a statement's values are unboxed: from here to
// projectRows the executor computes on sql.Datum.
func (x *execCtx) resolve(e sql.Expr) (sql.Datum, error) {
	switch e.Kind {
	case sql.ELit:
		return sql.DatumOf(e.Lit)
	case sql.EParam:
		if e.Param >= len(x.args) {
			return sql.Datum{}, fmt.Errorf("db: statement requires at least %d parameters, got %d", e.Param+1, len(x.args))
		}
		return sql.DatumOf(x.args[e.Param])
	default:
		return sql.Datum{}, fmt.Errorf("db: expected literal or parameter")
	}
}

// localCond is a WHERE conjunct bound to column positions of one table.
type localCond struct {
	colPos    int
	op        sql.CompareOp
	val       sql.Datum
	valCol    int // >= 0: compare against another column of the same row
	in        []sql.Datum
	isNull    bool
	isNotNull bool
}

func evalLocal(conds []localCond, row sql.Row) bool {
	for _, c := range conds {
		v := row.At(c.colPos)
		switch {
		case c.isNull:
			if !v.IsNull() {
				return false
			}
		case c.isNotNull:
			if v.IsNull() {
				return false
			}
		case len(c.in) > 0:
			ok := false
			for _, cand := range c.in {
				if v.Equal(cand) {
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
				rhs = row.At(c.valCol)
			}
			if !compareHolds(c.op, v, rhs) {
				return false
			}
		}
	}
	return true
}

// compareHolds reports whether `l op r` holds; a comparison with NULL on
// either side does not.
func compareHolds(op sql.CompareOp, l, r sql.Datum) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	cmp := l.Compare(r)
	switch op {
	case sql.OpEq:
		return cmp == 0
	case sql.OpNe:
		return cmp != 0
	case sql.OpLt:
		return cmp < 0
	case sql.OpLe:
		return cmp <= 0
	case sql.OpGt:
		return cmp > 0
	case sql.OpGe:
		return cmp >= 0
	}
	return false
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
				v, _ = t.cols[pos].Type.Coerce(v)
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
			// As the column would store it, where it can: an integer bound to
			// a DOUBLE column compares the same widened, and then has a key.
			lc.val, _ = t.cols[pos].Type.Coerce(v)
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
	data sql.Row
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
	var eqVals []sql.Datum
	var eqOne [1]sql.Datum
	var rangeIdx *Index
	var rangeLo, rangeHi []byte
	for _, c := range conds {
		if c.valCol >= 0 || c.isNull || c.isNotNull {
			continue
		}
		col := t.cols[c.colPos]
		idx := t.indexes[col.Name]
		if idx == nil {
			continue
		}
		// An index finds a value by its key, and keys are spelled by type: a
		// bound value the column could not store as it is (bindLocal already
		// widened an integer bound to a DOUBLE column) has no key there, and
		// is left to the scan's comparison.
		if len(c.in) > 0 {
			if !slices.ContainsFunc(c.in, func(v sql.Datum) bool { return !col.Type.Holds(v) }) {
				eqIdx, eqVals = idx, c.in
				break
			}
			continue
		}
		if c.val.IsNull() || !col.Type.Holds(c.val) {
			continue
		}
		if c.op == sql.OpEq {
			eqOne[0] = c.val
			eqIdx, eqVals = idx, eqOne[:]
			break // equality is always the best choice
		}
		if rangeIdx == nil && c.op != sql.OpNe {
			rangeIdx = idx
			switch c.op {
			case sql.OpGt, sql.OpGe:
				rangeLo = c.val.AppendKey(nil)
			case sql.OpLt:
				rangeHi = c.val.AppendKey(nil)
			case sql.OpLe:
				// AscendRange stops before hi: the bound that lets the value's
				// own key through is its successor, the key and a zero byte.
				rangeHi = append(c.val.AppendKey(nil), 0)
			}
		}
	}

	x.emitTable, x.emitConds, x.emitDst = t, conds, dst

	switch {
	case eqIdx != nil:
		x.sc.seen.reset()
		for _, v := range eqVals {
			if v.IsNull() {
				continue
			}
			if x.track {
				x.tags.addKey(t, eqIdx.column, v)
			}
			x.sc.keyBuf = v.AppendKey(x.sc.keyBuf[:0])
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
			if row := v.Data.(sql.Row); evalLocal(conds, row) {
				x.emitDst = append(x.emitDst, scanRow{id, row})
				x.observeVisible(v.Interval())
			}
			continue
		}
		row := v.Data.(sql.Row)
		if !evalLocal(conds, row) {
			continue // predicate first (§5.2)
		}
		if v.VisibleAt(x.tx.snap) {
			x.emitDst = append(x.emitDst, scanRow{id, row})
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

// jrow is a joined row: one stored row per binding.
type jrow struct {
	vals []sql.Row
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
		arena = make([]sql.Row, 0, len(srs))
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
			v := r.vals[outerBind].At(outerPos)
			if v.IsNull() {
				continue
			}
			// scanTableInto plans each probe: an equality index on the
			// inner join column when one exists, a sequential scan
			// otherwise.
			probe[0].val, _ = inner.t.cols[innerPos].Type.Coerce(v)
			x.sc.joinBuf = x.scanTableInto(x.sc.joinBuf[:0], inner.t, probe)
			for _, m := range x.sc.joinBuf {
				nv := make([]sql.Row, len(r.vals)+1)
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
		lv := r.vals[lb].At(lp)
		var rv sql.Datum
		if c.Right.Kind == sql.ECol {
			rb, rp, err := resolveCol(bindings, c.Right.Col)
			if err != nil {
				return false, err
			}
			rv = r.vals[rb].At(rp)
		} else {
			rv, err = x.resolve(c.Right)
			if err != nil {
				return false, err
			}
		}
		switch {
		case c.IsNull:
			if !lv.IsNull() {
				return false, nil
			}
			continue
		case c.IsNotNull:
			if lv.IsNull() {
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
				if lv.Equal(v) {
					ok = true
					break
				}
			}
			if !ok {
				return false, nil
			}
			continue
		}
		if !compareHolds(c.Op, lv, rv) {
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
		var acc sql.Datum
		var sum float64
		var allInt = true
		n := 0
		for _, r := range rows {
			v := r.vals[bi].At(pos)
			if v.IsNull() {
				continue
			}
			n++
			switch se.Agg {
			case sql.AggCount:
			case sql.AggMax:
				if acc.IsNull() || v.Compare(acc) > 0 {
					acc = v
				}
			case sql.AggMin:
				if acc.IsNull() || v.Compare(acc) < 0 {
					acc = v
				}
			case sql.AggSum, sql.AggAvg:
				if num, ok := v.Int(); ok {
					sum += float64(num)
				} else if num, ok := v.Float(); ok {
					sum += num
					allInt = false
				} else {
					return fmt.Errorf("db: SUM/AVG over non-numeric column %s", se.Col)
				}
			}
		}
		switch se.Agg {
		case sql.AggCount:
			out[i] = int64(n)
		case sql.AggMax, sql.AggMin:
			out[i] = acc.Value() // nil when no rows
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

	// ORDER BY before projection so sort keys need not be selected. The keys
	// are read off the rows once, not once a comparison.
	if nk := len(plan.orderKeys); nk > 0 {
		keyed := x.sc.keyed[:0]
		keys := x.sc.sortKeys[:0]
		for _, r := range rows {
			for _, k := range plan.orderKeys {
				keys = append(keys, r.vals[k.bi].At(k.pos))
			}
		}
		for i, r := range rows {
			keyed = append(keyed, keyedRow{r, keys[i*nk : (i+1)*nk]})
		}
		slices.SortStableFunc(keyed, func(a, b keyedRow) int {
			for i := range a.keys {
				if cmp := a.keys[i].Compare(b.keys[i]); cmp != 0 {
					if sel.OrderBy[i].Desc {
						return -cmp
					}
					return cmp
				}
			}
			return 0
		})
		for i, kr := range keyed {
			rows[i] = kr.r
		}
		clear(keys) // the scratch must not keep a result's rows alive
		clear(keyed)
		x.sc.keyed, x.sc.sortKeys = keyed, keys
	}

	// OFFSET / LIMIT before projection, so only the rows a statement returns
	// have their values boxed. DISTINCT counts rows after duplicates are
	// dropped, which only projection finds: it cuts below.
	if !sel.Distinct {
		rows = cutRows(rows, sel.Offset, sel.Limit)
	}

	// Project: the one place a stored column becomes a sql.Value again. The
	// output rows are carved out of one allocation.
	outRows := make([][]sql.Value, 0, len(rows))
	flat := make([]sql.Value, len(rows)*len(projs))
	var seen map[string]bool
	if sel.Distinct {
		seen = map[string]bool{}
	}
	for _, r := range rows {
		if sel.Distinct {
			var kb []byte
			for _, p := range projs {
				kb = r.vals[p.bi].At(p.pos).AppendKey(kb)
			}
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		out := flat[:len(projs):len(projs)]
		flat = flat[len(projs):]
		for i, p := range projs {
			out[i] = r.vals[p.bi].At(p.pos).Value()
		}
		outRows = append(outRows, out)
	}
	if sel.Distinct {
		outRows = cutRows(outRows, sel.Offset, sel.Limit)
	}
	res.Rows = outRows
	return nil
}

// keyedRow is a row with its ORDER BY keys beside it.
type keyedRow struct {
	r    jrow
	keys []sql.Datum
}

// cutRows applies OFFSET and LIMIT (negative: none) to rows.
func cutRows[T any](rows []T, offset, limit int) []T {
	if offset > 0 {
		if offset >= len(rows) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}
