// Package coord is a lint fixture for the caller-side errcheck
// rules and for lock discipline: discarded crash-safety errors,
// write-path closes, mutex copies, and sends under a held lock.
package coord

import (
	"os"
	"sync"

	"fixture/internal/atomicfile"
	"fixture/internal/store"
)

// Flush bare-discards an atomic-write outcome and a store mutation:
// both flagged. The `_ =` on Create's error is explicit and exempt.
func Flush(db *store.DB, path string) {
	f, _ := atomicfile.Create(path)
	f.Commit()
	db.Flush()
}

// Dump opens a file for writing and throws away the deferred Close
// error: flagged (a failed close loses buffered data silently).
func Dump(path string, data []byte) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.Write(data)
}

// Shard carries a mutex; copying it forks the lock.
type Shard struct {
	mu sync.Mutex
	n  int
}

// Grow copies its lock-containing receiver: go vet's to flag.
func (s Shard) Grow() int { return s.n + 1 }

// Sum copies each lock-containing element while ranging: go vet's to
// flag, on the range value. The slice parameter itself is behind a
// slice header and fine.
func Sum(shards []Shard) int {
	total := 0
	for _, s := range shards {
		total += s.n
	}
	return total
}

// Clone dereferences a lock-containing pointer into a copy: go vet's.
func Clone(s *Shard) int {
	dup := *s
	return dup.n
}

// Publish sends on a channel while the shard lock is held: flagged.
func Publish(s *Shard, out chan<- int) {
	s.mu.Lock()
	out <- s.n
	s.mu.Unlock()
}

// Drain releases the lock before sending: compliant.
func Drain(s *Shard, out chan<- int) {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	out <- n
}
