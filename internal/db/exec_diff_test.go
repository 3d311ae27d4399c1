package db

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"txcache/internal/mvcc"
	"txcache/internal/sql"
)

// The executor evaluates predicates on packed rows (evalLocal over a
// sql.Row, comparing sql.Datums). The oracle below is the evaluator it
// replaced, kept word for word with the comparison it called: boxed values in
// a slice, compared through type switches. It shares no code with the
// engine's own.

type oracleCond struct {
	colPos    int
	op        sql.CompareOp
	val       sql.Value
	valCol    int
	in        []sql.Value
	isNull    bool
	isNotNull bool
}

func oracleEvalLocal(conds []oracleCond, row []sql.Value) bool {
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
				if oracleEqual(v, cand) {
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
			cmp := oracleCompare(v, rhs)
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

func oracleCompare(a, b sql.Value) int {
	ra, rb := oracleRank(a), oracleRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch av := a.(type) {
	case nil:
		return 0
	case bool:
		bv := b.(bool)
		switch {
		case av == bv:
			return 0
		case !av:
			return -1
		default:
			return 1
		}
	case int64:
		return oracleCmpFloat(float64(av), oracleAsFloat(b))
	case float64:
		return oracleCmpFloat(av, oracleAsFloat(b))
	case string:
		return strings.Compare(av, b.(string))
	default:
		panic(fmt.Sprintf("unsupported value type %T", a))
	}
}

func oracleRank(v sql.Value) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64, float64:
		return 2
	case string:
		return 3
	default:
		panic(fmt.Sprintf("unsupported value type %T", v))
	}
}

func oracleAsFloat(v sql.Value) float64 {
	if x, ok := v.(int64); ok {
		return float64(x)
	}
	return v.(float64)
}

func oracleCmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func oracleEqual(a, b sql.Value) bool {
	if a == nil || b == nil {
		return false
	}
	return oracleRank(a) == oracleRank(b) && oracleCompare(a, b) == 0
}

// diffSchema is the one table of this test: a column of every type, two of
// them indexed so that statements plan as an index equality, an IN probe, a
// range scan and a sequential scan.
var diffSchema = []string{
	`CREATE TABLE d (id BIGINT PRIMARY KEY, n BIGINT, f DOUBLE, s TEXT, b BOOLEAN, g DOUBLE)`,
	`CREATE INDEX d_n ON d (n)`,
	`CREATE INDEX d_s ON d (s)`,
}

var (
	diffCols  = []string{"id", "n", "f", "s", "b", "g"}
	diffOps   = []sql.CompareOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}
	diffOpSQL = map[sql.CompareOp]string{sql.OpEq: "=", sql.OpNe: "!=", sql.OpLt: "<", sql.OpLe: "<=", sql.OpGt: ">", sql.OpGe: ">="}
)

// diffValue draws a value of column col's type from a domain small enough
// that equalities happen; one draw in six is NULL.
func diffValue(rng *rand.Rand, col int) sql.Value {
	if rng.Intn(6) == 0 {
		return nil
	}
	switch col {
	case 0, 1:
		return int64(rng.Intn(6) - 2)
	case 2, 5:
		return []float64{-1.5, 0, 1, 2, 2.5}[rng.Intn(5)]
	case 3:
		return []string{"", "a", "ab", "b"}[rng.Intn(4)]
	default:
		return rng.Intn(2) == 0
	}
}

// diffLiteral draws a bound value to compare column col with: usually of
// the column's type, sometimes an integer against a float column or a float
// against an integer one, sometimes of another type altogether.
func diffLiteral(rng *rand.Rand, col int) sql.Value {
	if rng.Intn(4) == 0 {
		return diffValue(rng, rng.Intn(len(diffCols)))
	}
	return diffValue(rng, col)
}

// diffCond draws one conjunct and its SQL text.
func diffCond(rng *rand.Rand) (oracleCond, string, []sql.Value) {
	col := rng.Intn(len(diffCols))
	c := oracleCond{colPos: col, valCol: -1}
	name := diffCols[col]
	switch rng.Intn(6) {
	case 0:
		c.isNull = true
		return c, name + " IS NULL", nil
	case 1:
		c.isNotNull = true
		return c, name + " IS NOT NULL", nil
	case 2:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c.in = append(c.in, diffLiteral(rng, col))
		}
		return c, name + " IN (?" + strings.Repeat(", ?", len(c.in)-1) + ")", c.in
	case 3:
		c.op = diffOps[rng.Intn(len(diffOps))]
		c.valCol = rng.Intn(len(diffCols))
		return c, name + " " + diffOpSQL[c.op] + " " + diffCols[c.valCol], nil
	default:
		c.op = diffOps[rng.Intn(len(diffOps))]
		c.val = diffLiteral(rng, col)
		return c, name + " " + diffOpSQL[c.op] + " ?", []sql.Value{c.val}
	}
}

func (c oracleCond) bound() localCond {
	lc := localCond{colPos: c.colPos, op: c.op, val: datumOf(c.val), valCol: c.valCol, isNull: c.isNull, isNotNull: c.isNotNull}
	for _, v := range c.in {
		lc.in = append(lc.in, datumOf(v))
	}
	return lc
}

// TestExecutorMatchesOracle drives the packed-row evaluator and the oracle
// with the same seeded random rows and conditions — directly, and through
// whole statements so that every access path is crossed (valid flow) — and
// then hands the table statements it must refuse (rejection flow).
func TestExecutorMatchesOracle(t *testing.T) {
	e := New(Options{})
	mustDDL(t, e, diffSchema...)
	tab := e.tables["d"]

	t.Run("ValidFlow", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		const nRows = 300
		rows := make([][]sql.Value, nRows)
		tx, err := e.BeginTx(context.Background(), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			row := []sql.Value{int64(i)}
			for col := 1; col < len(diffCols); col++ {
				row = append(row, diffValue(rng, col))
			}
			rows[i] = row
			if _, err := tx.Exec("INSERT INTO d (id, n, f, s, b, g) VALUES (?, ?, ?, ?, ?, ?)", row...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// The stored rows, to drive evalLocal directly.
		packed := make([]sql.Row, nRows)
		for i := range packed {
			v, ok := tab.store.Latest(mvcc.RowID(i + 1))
			if !ok {
				t.Fatalf("row %d is not in the store", i)
			}
			packed[i] = v.Data.(sql.Row)
		}

		matched, kinds := 0, map[string]int{}
		for trial := 0; trial < 2000; trial++ {
			var oconds []oracleCond
			var lconds []localCond
			var where []string
			var args []sql.Value
			for n := 1 + rng.Intn(3); n > 0; n-- {
				c, text, a := diffCond(rng)
				oconds = append(oconds, c)
				lconds = append(lconds, c.bound())
				where = append(where, text)
				args = append(args, a...)
			}
			var want []int64
			for i, row := range rows {
				ok := oracleEvalLocal(oconds, row)
				if got := evalLocal(lconds, packed[i]); got != ok {
					t.Fatalf("WHERE %s %v on row %v: evalLocal = %v, the oracle %v", strings.Join(where, " AND "), args, row, got, ok)
				}
				if ok {
					want = append(want, int64(i))
				}
			}
			src := "SELECT id FROM d WHERE " + strings.Join(where, " AND ")
			got := queryInts(t, e, src, args...)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %v returned ids %v, the oracle selects %v", src, args, got, want)
			}
			matched += len(want)
			for _, w := range where {
				kinds[strings.Fields(w)[1]]++
			}
		}
		if matched == 0 || len(kinds) < 8 {
			t.Fatalf("the trials selected %d rows over condition kinds %v: the generator is not exercising the evaluator", matched, kinds)
		}
	})

	t.Run("RejectionFlow", func(t *testing.T) {
		before := e.Stats()
		for _, tc := range []struct {
			name, src string
			args      []sql.Value
			want      string
		}{
			{"a string in an integer column", "INSERT INTO d (id, n) VALUES (?, ?)", []sql.Value{int64(9001), "seven"}, "cannot hold string"},
			{"a float in an integer column", "INSERT INTO d (id, n) VALUES (?, ?)", []sql.Value{int64(9001), 1.5}, "cannot hold float64"},
			{"a value outside the domain", "INSERT INTO d (id, n) VALUES (?, ?)", []sql.Value{int64(9001), 7}, "unsupported value type int"},
			{"one in a predicate", "UPDATE d SET n = 1 WHERE id = ?", []sql.Value{uint8(3)}, "unsupported value type uint8"},
			{"an update to the wrong type", "UPDATE d SET b = ? WHERE id = 1", []sql.Value{"yes"}, "cannot hold string"},
			{"a column copied into one that cannot hold it", "UPDATE d SET n = s WHERE s IS NOT NULL", nil, "cannot hold"},
			{"too few values", "INSERT INTO d (id, n) VALUES (?)", []sql.Value{int64(9001)}, "expects 2 values"},
		} {
			tx, err := e.BeginTx(context.Background(), false, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(tc.src, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
			}
			tx.Abort()
		}
		// A query refuses one too, where it used to panic in the key encoder.
		tx, _ := e.BeginTx(context.Background(), true, 0)
		if _, err := tx.Query("SELECT id FROM d WHERE n = ?", 7); err == nil || !strings.Contains(err.Error(), "unsupported value type int") {
			t.Errorf("a query bound to an int: %v, want an error", err)
		}
		tx.Abort()
		if after := e.Stats(); after.Rows != before.Rows || after.RowBytes != before.RowBytes || after.TotalVersions != before.TotalVersions {
			t.Fatalf("refused statements changed the table: %+v, was %+v", after, before)
		}
	})
}
