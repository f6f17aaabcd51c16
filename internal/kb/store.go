package kb

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cloudlens/internal/core"
	"cloudlens/internal/obs"
)

// Store metrics, pre-resolved at init. Counts are process-cumulative
// across every store in the binary; the gauge tracks the store written to
// most recently (a server process holds exactly one).
var (
	storePuts = obs.Default.Counter("cloudlens_kb_profile_puts_total",
		"Knowledge-base profile inserts and replacements.")
	storeProfiles = obs.Default.Gauge("cloudlens_kb_profiles",
		"Profiles held by the most recently written knowledge-base store.")
)

// Store is the thread-safe profile repository. Management policies query it
// for workload knowledge; the HTTP handler in this package exposes it to
// other systems.
type Store struct {
	mu       sync.RWMutex
	profiles map[core.SubscriptionID]*Profile
	// version counts writes; snapshot caches (StoreSource) compare it to
	// decide whether a cached immutable view is still current.
	version atomic.Uint64
}

// NewStore returns an empty knowledge base.
func NewStore() *Store {
	return &Store{profiles: make(map[core.SubscriptionID]*Profile)}
}

// Put inserts or replaces profiles as one write: one lock round and one
// version bump however many profiles it carries, so a fold publishes its
// whole profile set at once and readers never see half of it.
func (s *Store) Put(ps ...*Profile) {
	s.mu.Lock()
	for _, p := range ps {
		s.profiles[p.Subscription] = p
	}
	n := len(s.profiles)
	s.mu.Unlock()
	s.version.Add(1)
	storePuts.Add(int64(len(ps)))
	storeProfiles.SetInt(n)
}

// Version returns the store's write counter. Two equal readings with no
// writes in between guarantee List/Get observed the same profile set.
func (s *Store) Version() uint64 { return s.version.Load() }

// Get returns the profile of one subscription.
func (s *Store) Get(id core.SubscriptionID) (*Profile, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.profiles[id]
	return p, ok
}

// Len returns the number of stored profiles.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.profiles)
}

// Query filters profiles. Zero-valued fields match everything.
type Query struct {
	// Cloud restricts to one platform when valid.
	Cloud core.Cloud
	// MinRegionAgnosticScore keeps profiles at or above the score
	// (set to a negative value to disable; 0 keeps all multi-region
	// profiles with non-negative correlation).
	MinRegionAgnosticScore float64
	// Pattern keeps profiles whose dominant pattern matches.
	Pattern core.Pattern
	// MinShortLivedShare keeps churn-heavy subscriptions (spot
	// candidates).
	MinShortLivedShare float64
}

// disabledScore marks MinRegionAgnosticScore as "no filter".
const disabledScore = -2

// Match reports whether one profile satisfies the query.
func (q Query) Match(p *Profile) bool {
	if q.Cloud.Valid() && p.Cloud != q.Cloud {
		return false
	}
	if q.MinRegionAgnosticScore > disabledScore && p.RegionAgnosticScore < q.MinRegionAgnosticScore {
		return false
	}
	if q.Pattern != core.PatternUnknown && p.DominantPattern != q.Pattern {
		return false
	}
	return p.ShortLivedShare >= q.MinShortLivedShare
}

// List returns all profiles matching the query, sorted by subscription ID.
func (s *Store) List(q Query) []*Profile {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Profile
	for _, p := range s.profiles {
		if q.Match(p) {
			out = append(out, p)
		}
	}
	sortBySubscription(out)
	return out
}

// sortBySubscription orders profiles by subscription ID. It runs in every
// post-fold capture, hence the generic sort: it swaps the pointers directly
// where sort.Slice goes through a reflection swapper.
func sortBySubscription(list []*Profile) {
	slices.SortFunc(list, func(a, b *Profile) int {
		return cmp.Compare(a.Subscription, b.Subscription)
	})
}

// Summary aggregates the knowledge base per platform.
type Summary struct {
	Cloud             core.Cloud               `json:"cloud"`
	Subscriptions     int                      `json:"subscriptions"`
	VMsObserved       int                      `json:"vmsObserved"`
	SnapshotCores     int                      `json:"snapshotCores"`
	MeanUtilization   float64                  `json:"meanUtilization"`
	PatternShares     map[core.Pattern]float64 `json:"patternShares"`
	RegionAgnostic    int                      `json:"regionAgnostic"`
	MultiRegion       int                      `json:"multiRegion"`
	MedianLifetimeMin float64                  `json:"medianLifetimeMin"`
}

// RegionAgnosticThreshold is the cross-region correlation above which a
// multi-region subscription is considered region-agnostic.
const RegionAgnosticThreshold = 0.8

// Summarize aggregates all profiles of one platform. Profiles are walked
// in subscription order so the floating-point accumulation order — and
// therefore the summary, bit for bit — is a pure function of the stored
// profiles, never of map iteration or insertion order.
func (s *Store) Summarize(cloud core.Cloud) Summary {
	s.mu.RLock()
	list := make([]*Profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		list = append(list, p)
	}
	s.mu.RUnlock()
	sortBySubscription(list)
	return summarizeSorted(cloud, list)
}

// summarizeSorted aggregates one platform's slice of an already
// subscription-sorted profile list — the shared core of Store.Summarize and
// Snapshot.Summarize. The input order fixes the floating-point accumulation
// order, keeping the summary bit-deterministic.
func summarizeSorted(cloud core.Cloud, profiles []*Profile) Summary {
	sum := Summary{
		Cloud:         cloud,
		PatternShares: make(map[core.Pattern]float64),
	}
	var utilSum float64
	var lifetimes []float64
	classifiedSubs := 0
	for _, p := range profiles {
		if p.Cloud != cloud {
			continue
		}
		sum.Subscriptions++
		sum.VMsObserved += p.VMsObserved
		sum.SnapshotCores += p.SnapshotCores
		if p.MeanUtilization > 0 {
			utilSum += p.MeanUtilization
			classifiedSubs++
		}
		for k, v := range p.PatternShares {
			sum.PatternShares[k] += v
		}
		if len(p.Regions) > 1 {
			sum.MultiRegion++
			if p.RegionAgnosticScore >= RegionAgnosticThreshold {
				sum.RegionAgnostic++
			}
		}
		if p.MedianLifetimeMin > 0 {
			lifetimes = append(lifetimes, p.MedianLifetimeMin)
		}
	}
	if classifiedSubs > 0 {
		sum.MeanUtilization = utilSum / float64(classifiedSubs)
		patterns := make([]core.Pattern, 0, len(sum.PatternShares))
		for k := range sum.PatternShares {
			patterns = append(patterns, k)
		}
		slices.Sort(patterns)
		total := 0.0
		for _, k := range patterns {
			total += sum.PatternShares[k]
		}
		if total > 0 {
			for k := range sum.PatternShares {
				sum.PatternShares[k] /= total
			}
		}
	}
	sort.Float64s(lifetimes)
	if len(lifetimes) > 0 {
		sum.MedianLifetimeMin = lifetimes[len(lifetimes)/2]
	}
	return sum
}

// SaveFile persists the knowledge base as JSON.
func (s *Store) SaveFile(path string) error {
	s.mu.RLock()
	list := make([]*Profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		list = append(list, p)
	}
	s.mu.RUnlock()
	sortBySubscription(list)
	// The canonical encoder's array, indented: the bytes MarshalIndent
	// would write.
	raw := []byte{'['}
	for i, p := range list {
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

// LoadFile reads a knowledge base written by SaveFile.
func LoadFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kb: load: %w", err)
	}
	var list []*Profile
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("kb: load: %w", err)
	}
	s := NewStore()
	for _, p := range list {
		s.Put(p)
	}
	return s, nil
}
