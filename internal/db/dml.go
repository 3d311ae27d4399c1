package db

import (
	"fmt"

	"txcache/internal/sql"
)

// runInsert buffers INSERT rows in the transaction's write set. Caller
// holds t's table lock shared.
func (tx *Tx) runInsert(ins *sql.Insert, t *Table, args []sql.Value) (int, error) {
	x := tx.newExecCtx(args)
	// Map the column list to schema positions.
	positions := x.sc.posBuf[:0]
	if len(ins.Cols) == 0 {
		for i := range t.cols {
			positions = append(positions, i)
		}
	} else {
		for _, c := range ins.Cols {
			pos, ok := t.colPos[c]
			if !ok {
				return 0, fmt.Errorf("db: no column %q in %s", c, t.name)
			}
			positions = append(positions, pos)
		}
	}
	x.sc.posBuf = positions
	count := 0
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(positions) {
			return 0, fmt.Errorf("db: INSERT into %s expects %d values, got %d", t.name, len(positions), len(exprRow))
		}
		vals := x.sc.valBuf[:0]
		for range t.cols {
			vals = append(vals, sql.Datum{}) // a column the statement does not name is NULL
		}
		x.sc.valBuf = vals
		for i, e := range exprRow {
			v, err := x.resolve(e)
			if err != nil {
				return 0, err
			}
			vals[positions[i]] = v
		}
		row, err := x.packRow(t, vals)
		if err != nil {
			return 0, err
		}
		tx.stageInsert(t.name, row)
		count++
	}
	return count, nil
}

// packRow is where a row becomes bytes: every column coerced to its schema
// type, then encoded, once. The sql.Row it returns is the value the write
// set, the WAL record, the version store and a checkpoint all carry.
func (x *execCtx) packRow(t *Table, vals []sql.Datum) (sql.Row, error) {
	for i, v := range vals {
		var err error
		if vals[i], err = t.coerce(i, v); err != nil {
			return "", err
		}
	}
	x.sc.rowEnc = sql.AppendRow(x.sc.rowEnc[:0], vals)
	return sql.Row(x.sc.rowEnc), nil
}

// runUpdate finds target rows at the transaction's snapshot (with its own
// writes overlaid) and buffers replacement versions. Caller holds t's
// table lock shared.
func (tx *Tx) runUpdate(u *sql.Update, t *Table, args []sql.Value) (int, error) {
	x := tx.newExecCtx(args)
	local, rest, err := x.bindLocal(x.sc.condBuf[:0], t, u.Table, u.Where)
	x.sc.condBuf = local
	if err != nil {
		return 0, err
	}
	if len(rest) > 0 {
		return 0, fmt.Errorf("db: UPDATE WHERE must reference only %s", u.Table)
	}
	// Pre-resolve assignments.
	assigns := x.sc.assignBuf[:0]
	for _, a := range u.Set {
		pos, ok := t.colPos[a.Column]
		if !ok {
			return 0, fmt.Errorf("db: no column %q in %s", a.Column, t.name)
		}
		ba := boundAssign{pos: pos, srcCol: -1}
		if a.Value.Kind == sql.ECol {
			src, ok := t.colPos[a.Value.Col.Column]
			if !ok || !colBelongs(a.Value.Col, t, u.Table) {
				return 0, fmt.Errorf("db: SET source column %s not in %s", a.Value.Col, t.name)
			}
			ba.srcCol = src
		} else {
			v, err := x.resolve(a.Value)
			if err != nil {
				return 0, err
			}
			ba.val = v
		}
		assigns = append(assigns, ba)
	}
	x.sc.assignBuf = assigns

	count := 0
	x.sc.rowBuf = x.scanTableInto(x.sc.rowBuf[:0], t, local)
	for _, sr := range x.sc.rowBuf {
		// The new version is a whole row of its own: columns the statement
		// leaves alone are copied, not shared with the old version.
		vals := sr.data.AppendDatums(x.sc.valBuf[:0])
		x.sc.valBuf = vals
		for _, a := range assigns {
			if a.srcCol >= 0 {
				vals[a.pos] = sr.data.At(a.srcCol)
			} else {
				vals[a.pos] = a.val
			}
		}
		newData, err := x.packRow(t, vals)
		if err != nil {
			return 0, err
		}
		if sr.id&syntheticBit != 0 {
			rows := tx.sc.inserted[t.name]
			for i := range rows {
				if rows[i].tempID == sr.id {
					rows[i].data = newData
					break
				}
			}
		} else {
			tx.write(t.name, sr.id, rowWrite{op: opUpdate, data: newData})
		}
		count++
	}
	return count, nil
}

// boundAssign is one SET clause bound to column positions.
type boundAssign struct {
	pos    int
	val    sql.Datum
	srcCol int // >= 0: copy from another column of the old row
}

// runDelete finds target rows and buffers deletions. Caller holds t's
// table lock shared.
func (tx *Tx) runDelete(d *sql.Delete, t *Table, args []sql.Value) (int, error) {
	x := tx.newExecCtx(args)
	local, rest, err := x.bindLocal(x.sc.condBuf[:0], t, d.Table, d.Where)
	x.sc.condBuf = local
	if err != nil {
		return 0, err
	}
	if len(rest) > 0 {
		return 0, fmt.Errorf("db: DELETE WHERE must reference only %s", d.Table)
	}
	count := 0
	x.sc.rowBuf = x.scanTableInto(x.sc.rowBuf[:0], t, local)
	for _, sr := range x.sc.rowBuf {
		if sr.id&syntheticBit != 0 {
			rows := tx.sc.inserted[t.name]
			for i := range rows {
				if rows[i].tempID == sr.id {
					rows[i].deleted = true
					break
				}
			}
		} else {
			tx.write(t.name, sr.id, rowWrite{op: opDelete})
		}
		count++
	}
	return count, nil
}

// write buffers one update/delete, drawing the per-table map from the
// scratch free list so steady-state commits allocate no write-set
// containers.
func (tx *Tx) write(table string, id uint64, w rowWrite) {
	sc := tx.sc
	if sc.writes == nil {
		sc.writes = make(map[string]map[uint64]rowWrite)
	}
	m := sc.writes[table]
	if m == nil {
		if n := len(sc.rwFree); n > 0 {
			m, sc.rwFree = sc.rwFree[n-1], sc.rwFree[:n-1]
		} else {
			m = make(map[uint64]rowWrite)
		}
		sc.writes[table] = m
	}
	m[id] = w
}

// stageInsert buffers one insert, reusing a parked per-table slice when
// one is available.
func (tx *Tx) stageInsert(table string, row sql.Row) {
	sc := tx.sc
	if sc.inserted == nil {
		sc.inserted = make(map[string][]insertedRow)
	}
	rows, ok := sc.inserted[table]
	if !ok {
		if n := len(sc.insFree); n > 0 {
			rows, sc.insFree = sc.insFree[n-1], sc.insFree[:n-1]
		}
	}
	rows = append(rows, insertedRow{
		tempID: syntheticBit | uint64(len(rows)+1),
		data:   row,
	})
	sc.inserted[table] = rows
}
