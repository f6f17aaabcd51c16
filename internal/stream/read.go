package stream

import (
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
)

// LiveSnapshot is the immutable read-side view of a live replay, built
// from one Engine.CaptureLive pass: a kb.Snapshot over the published
// profiles plus the streaming-only state (live augmentation, per-cloud
// counters, per-pattern utilization bands) captured at the same instant.
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

// buildLiveSnapshot assembles a snapshot from one capture. step labels the
// fold boundary (grid steps), seq the publication sequence, and at the
// wall-clock publish time (zero disables Last-Modified validation).
func buildLiveSnapshot(capt LiveCapture, step int, seq uint64, at time.Time) *LiveSnapshot {
	sn := kb.SnapshotOfSorted(capt.Profiles, step, seq, at)
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
	ls.bodies = make([]byte, 0, liveBodyHint*len(capt.Profiles))
	ls.ends = make([]int, len(capt.Profiles))
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
	ls.summaryJSON = encodePayload(ls.summary)
	ls.percentilesJSON = encodePayload(ls.percentiles)
	ls.regionsJSON = encodePayload(sn.Regions())
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

// encodePayload matches kb.WriteJSON's encoding (trailing newline), so a
// pre-encoded body is byte-identical to the streamed form.
func encodePayload(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte("\n")
	}
	return append(data, '\n')
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

// ReadSource publishes immutable LiveSnapshots of a running engine at fold
// boundaries — the seqlock behind the whole live read surface. It is a
// FoldObserver: attach it to Options.FoldObserver before the pipeline is
// built, then Bind the pipeline's engine before serving. The fold path
// pays two atomic adds; snapshots materialize lazily on first read after a
// publication and are cached until the next one, so a burst of reads
// between folds pays for one capture (and one payload encoding) total.
//
// ReadSource also satisfies kb.SnapshotSource and the policy engine's
// snapshot source via Snapshot(), so one seqlock feeds the v1 batch
// routes, the live routes, and policy evaluation the same view.
type ReadSource struct {
	seq   atomic.Uint64 // odd ⇒ fold mid-rewrite
	step  atomic.Int64  // latest published fold boundary
	clock func() time.Time

	mu       sync.Mutex
	eng      Engine
	cached   *LiveSnapshot
	cseq     uint64
	building bool
}

// NewReadSource returns an unbound source; clock stamps each snapshot's
// publish time at materialization (may be nil). Unbound, it serves empty
// snapshots.
func NewReadSource(clock func() time.Time) *ReadSource {
	return &ReadSource{clock: clock}
}

// Bind attaches the engine snapshots are captured from.
func (s *ReadSource) Bind(eng Engine) {
	s.mu.Lock()
	s.eng = eng
	s.cached = nil
	s.cseq = 0
	s.mu.Unlock()
}

// FoldBegin implements FoldObserver: mark the engine's store torn.
func (s *ReadSource) FoldBegin() { s.seq.Add(1) }

// FoldPublished implements FoldObserver: mark the store consistent as of
// the given fold boundary.
func (s *ReadSource) FoldPublished(step int) {
	s.step.Store(int64(step))
	s.seq.Add(1)
}

// Live returns the current snapshot, capturing a fresh one only when a
// fold has published since the cached capture (or the engine finished —
// Finish flips Done after the final fold, so the last snapshot rebuilds
// once more to report done). The loop discards any capture a concurrent
// fold tore through.
//
// Rebuilds are single-flight and never serialize readers behind them:
// exactly one caller captures the post-fold state while concurrent
// callers are handed the previous snapshot — an older but fully
// consistent published view, with the ETag and Last-Modified to match.
// A lone caller therefore always observes the freshest fold; staleness
// only ever lasts one in-flight rebuild under concurrency.
func (s *ReadSource) Live() *LiveSnapshot {
	for {
		seq := s.seq.Load()
		if seq%2 == 1 {
			// A fold is mid-rewrite; it is O(profiles) and never waits on
			// readers, so just let it finish.
			runtime.Gosched()
			continue
		}
		s.mu.Lock()
		eng := s.eng
		done := eng != nil && eng.Progress().Done
		if s.cached != nil && s.cseq == seq && s.cached.summary.Done == done {
			ls := s.cached
			s.mu.Unlock()
			return ls
		}
		if s.building {
			if ls := s.cached; ls != nil {
				// Another reader is already capturing; serve the previous
				// snapshot instead of queueing behind the rebuild.
				s.mu.Unlock()
				return ls
			}
			// Nothing published yet (first read after Bind): wait for the
			// in-flight build.
			s.mu.Unlock()
			runtime.Gosched()
			continue
		}
		s.building = true
		s.mu.Unlock()

		ls := s.rebuild(eng, seq)

		s.mu.Lock()
		s.building = false
		if s.seq.Load() != seq {
			s.mu.Unlock()
			continue // torn by a concurrent fold; capture again
		}
		s.cached, s.cseq = ls, seq
		s.mu.Unlock()
		return ls
	}
}

// rebuild captures the engine and builds a snapshot from the capture. If
// either panics, the single-flight flag is cleared before the panic goes
// on up (net/http recovers a handler's panic), so the next reader rebuilds
// instead of being handed the stale snapshot forever — or spinning, when
// nothing was cached.
func (s *ReadSource) rebuild(eng Engine, seq uint64) (ls *LiveSnapshot) {
	defer func() {
		if ls == nil { // only a panic leaves it unset
			s.mu.Lock()
			s.building = false
			s.mu.Unlock()
		}
	}()
	var at time.Time
	if s.clock != nil {
		at = s.clock()
	}
	var capt LiveCapture
	if eng != nil {
		capt = eng.CaptureLive()
	}
	return buildLiveSnapshot(capt, int(s.step.Load()), seq/2, at)
}

// Snapshot implements kb.SnapshotSource (and the policy engine's source):
// the knowledge-base view of the current live snapshot.
func (s *ReadSource) Snapshot() *kb.Snapshot { return s.Live().KB() }
