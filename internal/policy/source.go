package policy

import "cloudlens/internal/kb"

// NewStoreSource serves sn relabelled with step as a fixed source. Bench
// only; ROADMAP 17(f) deletes. Other callers pass a snapshot, which is its
// own source.
func NewStoreSource(sn *kb.Snapshot, step int) *kb.Snapshot {
	return kb.NewSnapshot(sn, step, 0)
}
