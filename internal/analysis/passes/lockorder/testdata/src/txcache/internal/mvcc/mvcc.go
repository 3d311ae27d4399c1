package mvcc

// Miniature of internal/mvcc growing a lock of its own under Table.mu: a
// mutex over the row directory, a counter bumped outside the table lock.
// Either import is the finding.
import (
	"sync"        // want "internal/mvcc imports sync; its store is guarded by Table.mu alone"
	"sync/atomic" // want "internal/mvcc imports sync/atomic"
)

type Store struct {
	mu    sync.Mutex
	count atomic.Int64
	rows  []string
}

func (s *Store) Insert(row string) {
	s.mu.Lock()
	s.rows = append(s.rows, row)
	s.mu.Unlock()
	s.count.Add(1)
}
