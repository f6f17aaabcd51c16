package kb

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"cloudlens/internal/core"
)

// MatchAll returns the query that matches every stored profile. The zero
// Query is NOT match-all: its MinRegionAgnosticScore of 0 silently drops
// profiles whose score is negative (single-region subscriptions carry -1).
// Snapshot construction and any other "give me the whole knowledge base"
// caller must use this instead.
func MatchAll() Query { return Query{MinRegionAgnosticScore: disabledScore} }

// Snapshot is an immutable point-in-time view of a knowledge base,
// published at fold boundaries for readers (the v1 GET surface and the
// policy engine) that must see a consistent profile set while ingestion
// keeps rewriting the live store underneath them. The profile pointers are
// safe to retain because every fold Puts freshly built Profile values —
// published profiles are never mutated in place.
//
// Everything derived from a snapshot — per-cloud summaries, region
// rollups, assembled response payloads — is memoized on it, so a burst of
// reads between folds pays for each aggregate exactly once.
type Snapshot struct {
	step        int
	seq         uint64
	publishedAt time.Time
	profiles    []*Profile // sorted by subscription
	bySub       map[core.SubscriptionID]int

	fpOnce sync.Once
	fp     string

	summMu       sync.Mutex
	summaries    map[core.Cloud]Summary
	summComputes atomic.Int64 // test hook: Summarize cache misses

	memoMu sync.Mutex
	memos  map[string]interface{}
}

// NewSnapshot captures the store's current profile set. step labels the
// fold boundary the snapshot was published at (grid steps); seq is the
// publication sequence number (diagnostic only — it is never part of the
// snapshot's identity, which is the fingerprint).
func NewSnapshot(store *Store, step int, seq uint64) *Snapshot {
	return NewSnapshotAt(store, step, seq, time.Time{})
}

// NewSnapshotAt is NewSnapshot with an explicit publication timestamp,
// threaded in from the caller (this package is wall-clock-free by the
// determinism lint). A zero time means "unknown" and disables
// Last-Modified validation on HTTP responses built from the snapshot.
func NewSnapshotAt(store *Store, step int, seq uint64, publishedAt time.Time) *Snapshot {
	var profiles []*Profile
	if store != nil {
		profiles = store.List(MatchAll())
	}
	return SnapshotOfSorted(profiles, step, seq, publishedAt)
}

// SnapshotOfSorted wraps an already subscription-sorted profile list
// (typically a Store.List(MatchAll()) result captured under the same lock
// acquisition as other per-fold state) without re-listing the store.
// Callers must not mutate the slice afterwards.
func SnapshotOfSorted(profiles []*Profile, step int, seq uint64, publishedAt time.Time) *Snapshot {
	if profiles == nil {
		profiles = []*Profile{} // empty snapshots stay range- and JSON-safe
	}
	bySub := make(map[core.SubscriptionID]int, len(profiles))
	for i, p := range profiles {
		bySub[p.Subscription] = i
	}
	return &Snapshot{step: step, seq: seq, publishedAt: publishedAt, profiles: profiles, bySub: bySub}
}

// Step returns the fold boundary (in grid steps) the snapshot was
// published at.
func (s *Snapshot) Step() int { return s.step }

// Seq returns the publication sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// PublishedAt returns the wall-clock publication time, or the zero time
// when the snapshot was built without one (batch tests, offline tools).
func (s *Snapshot) PublishedAt() time.Time { return s.publishedAt }

// Len returns the number of profiles captured.
func (s *Snapshot) Len() int { return len(s.profiles) }

// Profiles returns the captured profiles sorted by subscription. Callers
// must not mutate the slice or the profiles.
func (s *Snapshot) Profiles() []*Profile { return s.profiles }

// Get returns one subscription's profile.
func (s *Snapshot) Get(id core.SubscriptionID) (*Profile, bool) {
	i, ok := s.bySub[id]
	if !ok {
		return nil, false
	}
	return s.profiles[i], true
}

// At returns the i-th profile in subscription order. With Len, Index and
// AppendBody it makes the snapshot the ProfileSet the batch profile routes
// serve from, encoding each body on demand.
func (s *Snapshot) At(i int) *Profile { return s.profiles[i] }

// Index returns the position of one subscription's profile.
func (s *Snapshot) Index(id core.SubscriptionID) (int, bool) {
	i, ok := s.bySub[id]
	return i, ok
}

// AppendBody appends the i-th profile's canonical encoding to dst.
func (s *Snapshot) AppendBody(dst []byte, i int) []byte {
	return AppendProfileJSON(dst, s.profiles[i])
}

// List returns the snapshot's profiles matching the query, in subscription
// order — the read-path counterpart of Store.List, minus the lock and the
// sort (the snapshot is already ordered). The returned slice is freshly
// allocated; the profiles are shared and must not be mutated.
func (s *Snapshot) List(q Query) []*Profile {
	out := make([]*Profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		if q.Match(p) {
			out = append(out, p)
		}
	}
	return out
}

// Summarize aggregates one platform's profiles, computing each cloud's
// summary at most once per snapshot — a burst of summary and health reads
// between folds shares one aggregation instead of recomputing it under the
// store lock per request.
func (s *Snapshot) Summarize(cloud core.Cloud) Summary {
	s.summMu.Lock()
	defer s.summMu.Unlock()
	if sum, ok := s.summaries[cloud]; ok {
		return sum
	}
	if s.summaries == nil {
		s.summaries = make(map[core.Cloud]Summary, 2)
	}
	s.summComputes.Add(1)
	sum := summarizeSorted(cloud, s.profiles)
	s.summaries[cloud] = sum
	return sum
}

// SummarizeComputes returns how many Summarize calls missed the memo — a
// test hook pinning the at-most-once-per-cloud guarantee.
func (s *Snapshot) SummarizeComputes() int64 { return s.summComputes.Load() }

// Memo returns the value cached under key, computing it once per snapshot
// on first use. Handlers memoize assembled response payloads (and their
// encoded bytes) on the snapshot they were derived from, so identical
// requests between folds are served without re-aggregating — and
// byte-identically, which is what makes the snapshot fingerprint a sound
// ETag. compute runs under the memo lock; it must not call Memo itself.
func (s *Snapshot) Memo(key string, compute func() interface{}) interface{} {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if v, ok := s.memos[key]; ok {
		return v
	}
	if s.memos == nil {
		s.memos = make(map[string]interface{})
	}
	v := compute()
	s.memos[key] = v
	return v
}

// Fingerprint returns the snapshot's content identity: an FNV-1a 64 over
// the canonical encoding (AppendProfileJSON, == encoding/json, fuzzed) of
// each profile in subscription order, newline-terminated, rendered as
// "fnv1a:<16 hex digits>". Two snapshots fingerprint equal exactly when
// their profile sets encode byte-identically — the property the policy
// determinism oracle pins across runs and shard counts. Computed lazily,
// once, unless EachEncoded already computed it: fold publication never
// pays for it.
func (s *Snapshot) Fingerprint() string {
	s.fpOnce.Do(func() { s.fp = s.encodeEach(nil) })
	return s.fp
}

// EachEncoded encodes every profile once, in subscription order, and hands
// fn each profile's index and canonical bytes; fn must neither keep nor
// modify them. The fingerprint is taken from the same bytes, so a later
// Fingerprint or ETag does no second encode.
func (s *Snapshot) EachEncoded(fn func(i int, body []byte)) {
	fp := s.encodeEach(fn)
	s.fpOnce.Do(func() { s.fp = fp })
}

func (s *Snapshot) encodeEach(fn func(i int, body []byte)) string {
	h := fnv.New64a()
	var buf []byte
	for i, p := range s.profiles {
		buf = append(AppendProfileJSON(buf[:0], p), '\n')
		_, _ = h.Write(buf)
		if fn != nil {
			fn(i, buf[:len(buf)-1])
		}
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// ETag returns the snapshot's strong HTTP entity tag: the quoted
// fingerprint. Every v1 GET served from the snapshot carries it, and a
// matching If-None-Match short-circuits to 304.
func (s *Snapshot) ETag() string { return `"` + s.Fingerprint() + `"` }

// PolicyVitals is the policy-engine slice of the /healthz payload: the
// configured policies, decision counters, ledger depth, and the identity
// of the snapshot decisions are currently evaluated against.
type PolicyVitals struct {
	Policies            []string `json:"policies"`
	Decisions           int64    `json:"decisions"`
	Accepted            int64    `json:"accepted"`
	Rejected            int64    `json:"rejected"`
	Counterfactuals     int64    `json:"counterfactuals"`
	LedgerEntries       int      `json:"ledgerEntries"`
	SnapshotStep        int      `json:"snapshotStep"`
	SnapshotProfiles    int      `json:"snapshotProfiles"`
	SnapshotFingerprint string   `json:"snapshotFingerprint"`
}
