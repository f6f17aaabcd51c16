package policy

import "cloudlens/internal/kb"

// NewStoreSource serves a static store as one immutable snapshot; step
// labels it (for a batch extraction, the trace's final grid step). It
// remains for bench/cloudbench's policy probe; other callers use
// kb.NewStoreSource.
func NewStoreSource(store *kb.Store, step int) *kb.StoreSource {
	return kb.NewStoreSource(store, step, nil)
}
