package stream

import (
	"strconv"
	"sync"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
)

// LiveSnapshot is the immutable read-side view of a live replay, built
// from one Engine.CaptureLive pass: the fold's published kb.Snapshot plus
// the streaming-only state (live augmentation, per-cloud counters,
// per-pattern utilization bands) captured at the same instant.
// Aggregated payloads and every live profile are JSON-encoded once at
// build time, so every read the snapshot serves — summary, percentiles,
// regions, a profile page — is a header check plus buffer writes,
// regardless of load.
//
// The encoded profiles live here rather than on the kb.Snapshot: the
// policy ledger retains every kb.Snapshot it decided against, and only
// ReadSource retains a LiveSnapshot.
type LiveSnapshot struct {
	kbsn *kb.Snapshot
	live []LiveProfile // live[i] augments kbsn.At(i)

	// bodies holds every live profile's JSON back to back, in subscription
	// order; profile i's ends at ends[i].
	bodies []byte
	ends   []int

	summary     Summary
	percentiles PercentilesReport

	summaryJSON     []byte
	percentilesJSON []byte
	regionsJSON     []byte
}

// buildLiveSnapshot assembles a snapshot from one capture. It serves the
// captured kb.Snapshot, with its fold labels, stamped with at, the
// wall-clock publish time (zero disables Last-Modified validation).
func buildLiveSnapshot(capt LiveCapture, at time.Time) *LiveSnapshot {
	if capt.KB == nil {
		capt.KB = kb.SnapshotOf(0, 0)
	}
	sn := capt.KB.Stamped(at)
	ls := &LiveSnapshot{
		kbsn: sn,
		live: capt.Live,
		summary: Summary{
			Step:   capt.Step,
			Steps:  capt.Steps,
			Done:   capt.Done,
			Clouds: make(map[string]CloudLive, 2),
		},
		percentiles: PercentilesReport{Step: capt.Step, Patterns: capt.Patterns},
	}
	if ls.percentiles.Patterns == nil {
		ls.percentiles.Patterns = []PatternBand{}
	}
	// One encode per profile feeds both the live bodies and the snapshot
	// fingerprint, so the first ETag after a fold costs nothing more.
	ls.bodies = make([]byte, 0, liveBodyHint*sn.Len())
	ls.ends = make([]int, sn.Len())
	sn.EachEncoded(func(i int, body []byte) {
		ls.bodies = appendLiveBody(ls.bodies, body, &capt.Live[i])
		ls.ends[i] = len(ls.bodies)
	})
	for _, c := range core.Clouds() {
		counters := capt.Clouds[c] // zero-valued for an unbound source
		ls.summary.Clouds[c.String()] = CloudLive{
			Summary:         sn.Summarize(c),
			SamplesIngested: counters.Samples,
			VMsSeen:         counters.VMsSeen,
			UtilP50:         counters.UtilP50,
			UtilP95:         counters.UtilP95,
		}
	}
	ls.summaryJSON = kb.EncodeJSON(ls.summary)
	ls.percentilesJSON = kb.EncodeJSON(ls.percentiles)
	ls.regionsJSON = kb.EncodeJSON(sn.Regions())
	return ls
}

// liveBodyHint bounds a typical live profile body in bytes (they average
// about 430 on the generated CPU week), so the slab of encoded bodies is
// usually allocated once.
const liveBodyHint = 512

// appendLiveBody appends a live profile's JSON given its profile's
// canonical encoding: encoding/json renders LiveProfile as the embedded
// kb.Profile's fields followed by its own, so the body is kbBody without
// its closing brace, then utilP50, utilP95, qualifiedVMs and samples.
func appendLiveBody(dst, kbBody []byte, lp *LiveProfile) []byte {
	dst = append(dst, kbBody[:len(kbBody)-1]...)
	dst = append(dst, `,"utilP50":`...)
	dst = kb.AppendJSONFloat(dst, lp.UtilP50)
	dst = append(dst, `,"utilP95":`...)
	dst = kb.AppendJSONFloat(dst, lp.UtilP95)
	dst = append(dst, `,"qualifiedVMs":`...)
	dst = strconv.AppendInt(dst, int64(lp.QualifiedVMs), 10)
	dst = append(dst, `,"samples":`...)
	dst = strconv.AppendInt(dst, lp.Samples, 10)
	return append(dst, '}')
}

// KB returns the underlying knowledge-base snapshot — the identity
// (fingerprint, ETag, publish time) every payload here is served under.
func (ls *LiveSnapshot) KB() *kb.Snapshot { return ls.kbsn }

// Summary returns the live per-cloud aggregate captured at build.
func (ls *LiveSnapshot) Summary() Summary { return ls.summary }

// Percentiles returns the per-pattern utilization bands captured at build.
func (ls *LiveSnapshot) Percentiles() PercentilesReport { return ls.percentiles }

// SummaryJSON returns the pre-encoded summary payload. Callers must not
// mutate the returned bytes.
func (ls *LiveSnapshot) SummaryJSON() []byte { return ls.summaryJSON }

// PercentilesJSON returns the pre-encoded percentiles payload.
func (ls *LiveSnapshot) PercentilesJSON() []byte { return ls.percentilesJSON }

// RegionsJSON returns the pre-encoded region-rollup payload.
func (ls *LiveSnapshot) RegionsJSON() []byte { return ls.regionsJSON }

// Len returns the number of live profiles. With At, Index and AppendBody
// it makes the snapshot the kb.ProfileSet the live profile routes serve
// from.
func (ls *LiveSnapshot) Len() int { return len(ls.live) }

// At returns the i-th profile in subscription order.
func (ls *LiveSnapshot) At(i int) *kb.Profile { return &ls.live[i].Profile }

// Index returns the position of one subscription's live profile.
func (ls *LiveSnapshot) Index(id core.SubscriptionID) (int, bool) { return ls.kbsn.Index(id) }

// Profile returns one subscription's live profile.
func (ls *LiveSnapshot) Profile(id core.SubscriptionID) (LiveProfile, bool) {
	i, ok := ls.kbsn.Index(id)
	if !ok {
		return LiveProfile{}, false
	}
	return ls.live[i], true
}

// AppendBody appends the i-th live profile's JSON, encoded at build.
func (ls *LiveSnapshot) AppendBody(dst []byte, i int) []byte {
	start := 0
	if i > 0 {
		start = ls.ends[i-1]
	}
	return append(dst, ls.bodies[start:ls.ends[i]]...)
}

// ReadSource serves immutable LiveSnapshots of a running engine, one per
// fold: Bind the engine before serving. A snapshot is captured lazily on
// the first read after a fold publishes (or after Finish flips Done) and
// cached until the next one, so a burst of reads between folds pays for
// one capture (and one payload encoding) total, and the fold path pays
// nothing. Engine.CaptureLive holds the lock every fold's merge holds, so
// a capture is never torn and reports the fold count and boundary it saw.
//
// ReadSource also satisfies kb.SnapshotSource via Snapshot(), so one
// source feeds the v1 batch routes, the live routes, and policy
// evaluation the same view.
type ReadSource struct {
	clock func() time.Time

	mu     sync.Mutex // guards eng and cached
	eng    Engine
	cached *LiveSnapshot

	// build makes rebuilds single-flight.
	build sync.Mutex
}

// NewReadSource returns an unbound source; clock stamps each snapshot's
// publish time at materialization (may be nil). Unbound, it serves empty
// snapshots.
func NewReadSource(clock func() time.Time) *ReadSource {
	return &ReadSource{clock: clock}
}

// Bind attaches the engine snapshots are captured from, after any
// in-flight rebuild has cached its snapshot of the previous engine.
func (s *ReadSource) Bind(eng Engine) {
	s.build.Lock()
	defer s.build.Unlock()
	s.mu.Lock()
	s.eng = eng
	s.cached = nil
	s.mu.Unlock()
}

// FoldBegin does nothing: a ReadSource needs no fold notifications, since
// it reads the engine's fold count. It remains so a FoldObserver that
// forwards to a ReadSource still compiles.
func (s *ReadSource) FoldBegin() {}

// FoldPublished does nothing; see FoldBegin.
func (s *ReadSource) FoldPublished(int) {}

// Live returns the current snapshot, capturing a fresh one only when a
// fold has published since the cached capture or the engine has finished
// (Finish flips Done after the final fold, so the last snapshot rebuilds
// once more to report done).
//
// Rebuilds are single-flight and never serialize readers behind them:
// exactly one caller captures the post-fold state while concurrent
// callers are handed the previous snapshot — an older but fully
// consistent published view, with the ETag and Last-Modified to match.
// Only the first read after Bind, with nothing cached, waits for the
// build. A lone caller therefore always observes the freshest fold.
func (s *ReadSource) Live() *LiveSnapshot {
	eng, ls := s.current()
	if ls != nil && ls.fresh(eng) {
		return ls
	}
	if ls == nil {
		s.build.Lock()
	} else if !s.build.TryLock() {
		return ls // another reader is capturing
	}
	defer s.build.Unlock()
	if eng, ls = s.current(); ls != nil && ls.fresh(eng) {
		return ls // built while this reader waited
	}
	var at time.Time
	if s.clock != nil {
		at = s.clock()
	}
	var capt LiveCapture
	if eng != nil {
		capt = eng.CaptureLive()
	}
	ls = buildLiveSnapshot(capt, at)
	s.mu.Lock()
	s.cached = ls
	s.mu.Unlock()
	return ls
}

// Cached returns the snapshot the last read was served, or nil before the
// first read after Bind. It never captures one.
func (s *ReadSource) Cached() *LiveSnapshot {
	_, ls := s.current()
	return ls
}

// current returns the bound engine and the cached snapshot.
func (s *ReadSource) current() (Engine, *LiveSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng, s.cached
}

// fresh reports whether no fold has published, and the engine has not
// finished, since the snapshot was captured.
func (ls *LiveSnapshot) fresh(eng Engine) bool {
	if eng == nil {
		return true
	}
	p := eng.Progress()
	return uint64(p.Folds) == ls.kbsn.Seq() && p.Done == ls.summary.Done
}

// Snapshot implements kb.SnapshotSource: the knowledge-base view of the
// current live snapshot.
func (s *ReadSource) Snapshot() *kb.Snapshot { return s.Live().KB() }
