package kb

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/obs"
)

// Snapshot metrics, resolved at init. The counter is process-cumulative
// across every snapshot the binary makes; the gauge tracks the one made
// most recently (a streaming server makes one per fold).
var (
	snapshotPuts = obs.Default.Counter("cloudlens_kb_profile_puts_total",
		"Profiles published in knowledge-base snapshots.")
	snapshotProfiles = obs.Default.Gauge("cloudlens_kb_profiles",
		"Profiles held by the most recently made knowledge-base snapshot.")
)

// SnapshotSource hands read handlers and the policy engine the immutable
// snapshot a request is served from. Snapshot must never return nil and
// must be safe for concurrent use; successive calls between publications
// return the same snapshot, so everything memoized on it is shared across
// requests. A *Snapshot is the fixed source of itself; stream.ReadSource
// serves a live engine.
type SnapshotSource interface {
	Snapshot() *Snapshot
}

// Snapshot is the knowledge base: an immutable set of profiles, sorted by
// subscription, each subscription once. The streaming engine publishes one
// per fold, labelled with the fold boundary (Step, in grid steps) and the
// fold count (Seq); Extract, LoadFile and Merge each make one. Profiles are
// never mutated once in a snapshot, so readers (the v1 GET surface, the
// policy engine and its ledger) may keep a snapshot and its profile
// pointers for as long as they like.
//
// Everything derived from a snapshot — the subscription index, per-cloud
// summaries, region rollups, assembled response payloads — is built on
// first use and memoized on it, so the fold pays for none of it and a
// burst of reads between folds pays for each exactly once.
type Snapshot struct {
	step        int
	seq         uint64
	publishedAt time.Time
	profiles    []*Profile

	// base is the snapshot this one relabels, which holds the lazily built
	// state below for both; nil for an original.
	base *Snapshot

	idxOnce sync.Once
	bySub   map[core.SubscriptionID]int

	fpOnce sync.Once
	fp     string

	summMu       sync.Mutex
	summaries    map[core.Cloud]Summary
	summComputes atomic.Int64 // test hook: Summarize cache misses

	memoMu sync.Mutex
	memos  map[string]interface{}
}

// SnapshotOf makes a snapshot of profiles labelled step and seq. It sorts
// the slice by subscription, in place, unless it already is, and keeps it:
// the caller must not touch the slice or the profiles afterwards. A
// subscription listed twice panics; LoadFile, which reads outside input,
// reports it as an error instead.
func SnapshotOf(step int, seq uint64, profiles ...*Profile) *Snapshot {
	if err := sortUnique(profiles); err != nil {
		panic("kb: " + err.Error())
	}
	if profiles == nil {
		profiles = []*Profile{} // empty snapshots stay range- and JSON-safe
	}
	snapshotPuts.Add(int64(len(profiles)))
	snapshotProfiles.SetInt(len(profiles))
	return &Snapshot{step: step, seq: seq, profiles: profiles}
}

// sortUnique orders profiles by subscription, unless they already are, and
// reports a subscription listed twice. Sorted input costs one comparison
// per profile.
func sortUnique(profiles []*Profile) error {
	for i := 1; i < len(profiles); i++ {
		if profiles[i-1].Subscription < profiles[i].Subscription {
			continue
		}
		slices.SortFunc(profiles, func(a, b *Profile) int {
			return cmp.Compare(a.Subscription, b.Subscription)
		})
		for j := 1; j < len(profiles); j++ {
			if profiles[j-1].Subscription == profiles[j].Subscription {
				return fmt.Errorf("subscription %q listed twice", profiles[j].Subscription)
			}
		}
		return nil
	}
	return nil
}

// Stamped returns s published at at, for HTTP Last-Modified validation:
// the same labels and profiles, and the same index and memos, so stamping
// the time a reader first served a fold costs one small allocation.
func (s *Snapshot) Stamped(at time.Time) *Snapshot { return s.relabel(s.step, s.seq, at) }

func (s *Snapshot) relabel(step int, seq uint64, at time.Time) *Snapshot {
	return &Snapshot{step: step, seq: seq, publishedAt: at, profiles: s.profiles, base: s.shared()}
}

// shared returns the snapshot that holds s's lazily built state.
func (s *Snapshot) shared() *Snapshot {
	if s.base != nil {
		return s.base
	}
	return s
}

// Store is the knowledge base's name in cloudbench. Bench only; ROADMAP
// 17(f) deletes.
type Store = Snapshot

// NewSnapshot relabels sn with step and seq, sharing its profiles and
// everything derived from them. Bench only; ROADMAP 17(f) deletes.
func NewSnapshot(sn *Snapshot, step int, seq uint64) *Snapshot {
	return sn.relabel(step, seq, time.Time{})
}

// Snapshot implements SnapshotSource: a snapshot is the fixed source of
// itself, which is how a batch extraction or a finished replay is served.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// Step returns the fold boundary (in grid steps) the snapshot was
// published at.
func (s *Snapshot) Step() int { return s.step }

// Seq returns the fold count the snapshot was published at. It labels the
// publication; the snapshot's identity is its fingerprint.
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
	i, ok := s.Index(id)
	if !ok {
		return nil, false
	}
	return s.profiles[i], true
}

// At returns the i-th profile in subscription order. With Len, Index and
// AppendBody it makes the snapshot the ProfileSet the batch profile routes
// serve from, encoding each body on demand.
func (s *Snapshot) At(i int) *Profile { return s.profiles[i] }

// Index returns the position of one subscription's profile. The index is
// built on the first lookup, so a fold that publishes a snapshot no one
// looks into pays for no map.
func (s *Snapshot) Index(id core.SubscriptionID) (int, bool) {
	c := s.shared()
	c.idxOnce.Do(func() {
		c.bySub = make(map[core.SubscriptionID]int, len(c.profiles))
		for i, p := range c.profiles {
			c.bySub[p.Subscription] = i
		}
	})
	i, ok := c.bySub[id]
	return i, ok
}

// AppendBody appends the i-th profile's canonical encoding to dst.
func (s *Snapshot) AppendBody(dst []byte, i int) []byte {
	return AppendProfileJSON(dst, s.profiles[i])
}

// List returns the snapshot's profiles matching the query, in subscription
// order. The returned slice is freshly allocated; the profiles are shared
// and must not be mutated.
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
// between folds shares one aggregation instead of recomputing it per
// request.
func (s *Snapshot) Summarize(cloud core.Cloud) Summary {
	c := s.shared()
	c.summMu.Lock()
	defer c.summMu.Unlock()
	if sum, ok := c.summaries[cloud]; ok {
		return sum
	}
	if c.summaries == nil {
		c.summaries = make(map[core.Cloud]Summary, 2)
	}
	c.summComputes.Add(1)
	sum := summarizeSorted(cloud, c.profiles)
	c.summaries[cloud] = sum
	return sum
}

// SummarizeComputes returns how many Summarize calls missed the memo — a
// test hook pinning the at-most-once-per-cloud guarantee.
func (s *Snapshot) SummarizeComputes() int64 { return s.shared().summComputes.Load() }

// Memo returns the value cached under key, computing it once per snapshot
// on first use. Handlers memoize assembled response payloads (and their
// encoded bytes) on the snapshot they were derived from, so identical
// requests between folds are served without re-aggregating — and
// byte-identically, which is what makes the snapshot fingerprint a sound
// ETag. compute runs under the memo lock; it must not call Memo itself.
func (s *Snapshot) Memo(key string, compute func() interface{}) interface{} {
	c := s.shared()
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if v, ok := c.memos[key]; ok {
		return v
	}
	if c.memos == nil {
		c.memos = make(map[string]interface{})
	}
	v := compute()
	c.memos[key] = v
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
	c := s.shared()
	c.fpOnce.Do(func() { c.fp = c.encodeEach(nil) })
	return c.fp
}

// EachEncoded encodes every profile once, in subscription order, and hands
// fn each profile's index and canonical bytes; fn must neither keep nor
// modify them. The fingerprint is taken from the same bytes, so a later
// Fingerprint or ETag does no second encode.
func (s *Snapshot) EachEncoded(fn func(i int, body []byte)) {
	c := s.shared()
	fp := c.encodeEach(fn)
	c.fpOnce.Do(func() { c.fp = fp })
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

// SaveFile persists the knowledge base as JSON.
func (s *Snapshot) SaveFile(path string) error {
	// The canonical encoder's array, indented: the bytes MarshalIndent
	// would write.
	raw := []byte{'['}
	for i, p := range s.profiles {
		if i > 0 {
			raw = append(raw, ',')
		}
		raw = AppendProfileJSON(raw, p)
	}
	raw = append(raw, ']')
	var data bytes.Buffer
	if err := json.Indent(&data, raw, "", "  "); err != nil {
		return fmt.Errorf("kb: save: %w", err)
	}
	if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
		return fmt.Errorf("kb: save: %w", err)
	}
	return nil
}

// LoadFile reads a knowledge base written by SaveFile. The file carries no
// fold labels, so the snapshot's step and seq are 0. A file that lists a
// subscription twice is refused.
func LoadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kb: load: %w", err)
	}
	var list []*Profile
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("kb: load: %w", err)
	}
	if err := sortUnique(list); err != nil {
		return nil, fmt.Errorf("kb: load %s: %w", path, err)
	}
	return SnapshotOf(0, 0, list...), nil
}
