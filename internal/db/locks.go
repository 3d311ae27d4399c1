package db

import (
	"fmt"
	"slices"
)

// tableLockSet is the set of tables one statement or one commit touches,
// resolved against the catalog once and then locked together. The tables
// slice is name-sorted and deduplicated, and both shared and exclusive
// acquisition walk it in that order, so any two lock sets — reader vs
// reader, reader vs committer, committer vs committer — acquire their
// common tables in the same order and can never deadlock. Statements touch
// at most a handful of tables, so member lookup is a linear walk over the
// slice rather than a per-statement map allocation.
type tableLockSet struct {
	tables []*Table
}

// lockSetFor resolves names under the catalog lock, appending the resolved
// tables to buf (callers pass a reusable scratch slice). The catalog lock
// is released before any table lock is taken (tables are never dropped, so
// the resolved pointers stay valid), preserving the catalog → table lock
// order that DDL relies on.
func (e *Engine) lockSetFor(buf []*Table, names ...string) (tableLockSet, error) {
	slices.Sort(names)
	ls := tableLockSet{tables: buf}
	e.catMu.RLock()
	defer e.catMu.RUnlock()
	for i, n := range names {
		if i > 0 && n == names[i-1] {
			continue
		}
		t, ok := e.tables[n]
		if !ok {
			return tableLockSet{}, fmt.Errorf("db: no table %q", n)
		}
		ls.tables = append(ls.tables, t)
	}
	return ls, nil
}

// get returns the resolved table, which must be part of the lock set.
func (ls tableLockSet) get(name string) (*Table, error) {
	for _, t := range ls.tables {
		if t.name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("db: no table %q", name)
}

// rlock takes every table's lock shared, for statement execution.
func (ls tableLockSet) rlock() {
	for _, t := range ls.tables {
		t.mu.RLock()
	}
}

func (ls tableLockSet) runlock() {
	for _, t := range ls.tables {
		t.mu.RUnlock()
	}
}

// lock takes every table's lock exclusively, for commit apply.
func (ls tableLockSet) lock() {
	for _, t := range ls.tables {
		t.mu.Lock()
	}
}

func (ls tableLockSet) unlock() {
	for _, t := range ls.tables {
		t.mu.Unlock()
	}
}
