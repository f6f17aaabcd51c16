package kb

import (
	"sync"
	"time"
)

// SnapshotSource hands read handlers and the policy engine the immutable
// snapshot a request is served from. Snapshot must never return nil and
// must be safe for concurrent use; successive calls between publications
// return the same snapshot, so everything memoized on it is shared across
// requests. StoreSource serves a store; stream.ReadSource serves a live
// engine.
type SnapshotSource interface {
	Snapshot() *Snapshot
}

// StoreSource serves a mutable store through cached immutable snapshots,
// gated on the store's write version: a snapshot is rebuilt only after a
// Put, so a static batch store costs one snapshot total and repeated GETs
// against it are byte-identical. This is the batch server's source (see
// server.New for the routes it backs) and the policy engine's source after
// a finished replay; a store still being written is read in consistent
// units, each request from one snapshot.
type StoreSource struct {
	store *Store
	step  int
	clock func() time.Time // nil ⇒ snapshots carry no publish time

	mu       sync.Mutex
	cached   *Snapshot
	cversion uint64
	seq      uint64
}

// NewStoreSource wraps a store; step labels its snapshots (for a batch
// extraction this is the trace's final grid step). clock supplies the
// Last-Modified timestamp of each rebuilt snapshot and may be nil. A nil
// store serves one empty snapshot.
func NewStoreSource(store *Store, step int, clock func() time.Time) *StoreSource {
	return &StoreSource{store: store, step: step, clock: clock}
}

// Snapshot implements SnapshotSource: return the cached snapshot while the
// store version is unchanged, rebuilding (and re-stamping) after writes.
func (s *StoreSource) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		v := s.version()
		if s.cached != nil && s.cversion == v {
			return s.cached
		}
		s.seq++
		var at time.Time
		if s.clock != nil {
			at = s.clock()
		}
		sn := NewSnapshotAt(s.store, s.step, s.seq, at)
		if s.version() != v {
			continue // raced a writer mid-listing; capture again
		}
		s.cached, s.cversion = sn, v
		return sn
	}
}

// version is the store's write version; a nil store never changes.
func (s *StoreSource) version() uint64 {
	if s.store == nil {
		return 0
	}
	return s.store.Version()
}
