// Package parallel provides the worker pool the characterization pipeline,
// the replayer and the hourly profile fold fan out on. Every helper
// preserves result order — work writes into index-addressed slots, never
// into shared accumulators — so a computation produces bit-identical results
// whether it runs on one core or many. Helpers run inline when only one
// worker is available, keeping the sequential path free of goroutine and
// channel overhead.
//
// The pool is persistent: helper goroutines are started once, park on a
// condition variable between dispatches, and dispatch records are recycled,
// so a dispatch allocates nothing. The caller always works on its own
// dispatch and idle helpers join it; nobody ever waits for a helper to
// become free, so a dispatch issued from inside another (nesting) cannot
// deadlock — at worst its caller runs every unit alone. DESIGN.md §5.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"cloudlens/internal/obs"
)

// Pool metrics, pre-resolved at init. A "dispatch" is one ForEach call
// (ForEachChunk counts once, not once per chunk); the inflight gauge is
// the live dispatch depth — nested fan-outs show as >1.
var (
	poolDispatches = obs.Default.Counter("cloudlens_pool_dispatches_total",
		"Fan-out dispatches through the worker pool.")
	poolTasks = obs.Default.Counter("cloudlens_pool_tasks_total",
		"Work items dispatched through the worker pool.")
	poolInflight = obs.Default.Gauge("cloudlens_pool_inflight_dispatches",
		"Fan-out dispatches currently executing.")
)

// Workers returns the pool size used by the helpers: GOMAXPROCS, floored
// at 1. Sizing to GOMAXPROCS keeps the pipeline CPU-bound stages saturated
// without oversubscribing the scheduler; the analyses never block on I/O.
func Workers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// ForEach invokes fn(i) for every i in [0, n), spread over at most
// Workers() goroutines (the caller's among them), and returns once all
// invocations have finished. fn must be safe for concurrent use and must
// not depend on invocation order. A panic in any invocation is re-raised on
// the caller's goroutine.
func ForEach(n int, fn func(i int)) {
	dispatch(eachFunc(fn), nil, n, 1)
}

// ForEachChunk splits [0, n) into at most Workers() contiguous chunks and
// invokes fn(lo, hi) once per chunk, concurrently. Use it when a worker
// benefits from per-chunk state (a reusable scratch buffer, one allocation
// amortized over many items). Chunk boundaries are deterministic in n and
// Workers(), but fn must not care which goroutine runs which chunk.
func ForEachChunk(n int, fn func(lo, hi int)) {
	forChunks(chunkFunc(fn), nil, n)
}

// Map invokes fn(i) for every i in [0, n) on the pool and returns the
// results in index order, regardless of execution order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	dispatch(mapFunc[T](fn), unsafe.Pointer(unsafe.SliceData(out)), n, 1)
	return out
}

// MapChunk is ForEachChunk with an order-preserving result slice: fn fills
// out[lo:hi] for its chunk, reusing whatever scratch state it likes.
func MapChunk[T any](n int, fn func(lo, hi int, out []T)) []T {
	out := make([]T, n)
	forChunks(mapChunkFunc[T](fn), unsafe.Pointer(unsafe.SliceData(out)), n)
	return out
}

// Do runs the given tasks concurrently on the pool and waits for all of
// them. Tasks must be independent; each typically fills its own result
// variable.
func Do(tasks ...func()) {
	ForEach(len(tasks), func(i int) { tasks[i]() })
}

// runner is one dispatch's work: run covers the items [lo, hi) of a
// dispatch over n items whose caller-owned slice, if the helper has one,
// starts at base. The adapters below are func types, so storing one in the
// runner interface allocates nothing, and the slice travels as a bare
// pointer rather than a boxed header.
type runner interface {
	run(base unsafe.Pointer, n, lo, hi int)
}

type eachFunc func(i int)

func (f eachFunc) run(_ unsafe.Pointer, _, lo, hi int) {
	for i := lo; i < hi; i++ {
		f(i)
	}
}

type chunkFunc func(lo, hi int)

func (f chunkFunc) run(_ unsafe.Pointer, _, lo, hi int) { f(lo, hi) }

type mapFunc[T any] func(i int) T

func (f mapFunc[T]) run(base unsafe.Pointer, n, lo, hi int) {
	out := unsafe.Slice((*T)(base), n)
	for i := lo; i < hi; i++ {
		out[i] = f(i)
	}
}

type mapChunkFunc[T any] func(lo, hi int, out []T)

func (f mapChunkFunc[T]) run(base unsafe.Pointer, n, lo, hi int) {
	f(lo, hi, unsafe.Slice((*T)(base), n)[lo:hi])
}

// forChunks dispatches r over at most Workers() contiguous chunks of
// [0, n), or runs it inline — and uncounted — as one chunk when only one
// worker would take part.
func forChunks(r runner, base unsafe.Pointer, n int) {
	workers := min(Workers(), n)
	if workers <= 1 {
		if n > 0 {
			r.run(base, n, 0, n)
		}
		return
	}
	dispatch(r, base, n, (n+workers-1)/workers)
}

// dispatch runs r over [0, n) in units of size consecutive items (the last
// unit may be shorter), counting one dispatch of that many units. On one
// worker it runs inline; otherwise the caller publishes the dispatch, wakes
// up to Workers()-1 helpers, and claims units itself until none are left.
func dispatch(r runner, base unsafe.Pointer, n, size int) {
	units := 0
	if n > 0 {
		units = (n + size - 1) / size
	}
	poolDispatches.Inc()
	poolTasks.Add(int64(units))
	poolInflight.Add(1)
	defer poolInflight.Add(-1)
	workers := min(Workers(), units)
	if workers <= 1 {
		if n > 0 {
			r.run(base, n, 0, n)
		}
		return
	}
	shared.run(r, base, n, size, units, workers-1)
}

// pool is the process's persistent helper set. Helpers park on work while
// no open dispatch has both an unclaimed unit and room for another helper;
// a caller whose own units are claimed parks there too until its helpers
// have left or a dispatch nested under it needs hands.
//
// A dispatch that finds fewer idle helpers than it can use starts the
// difference, so every dispatch — nested ones included — gets its full
// Workers() participants and the Go scheduler balances them across cores,
// as it did when each dispatch spawned its own goroutines. The set grows
// to the deepest concurrent nesting the process has seen and then stays
// put, so a steady-state dispatch starts nothing.
type pool struct {
	mu   sync.Mutex
	work sync.Cond
	open []*job // published dispatches, oldest first
	free []*job // finished dispatch records, ready for reuse
	idle int    // helpers not inside a job, parked or about to park
	seq  uint64 // publication counter; orders jobs for waiting callers
}

var shared = func() *pool {
	p := &pool{}
	p.work.L = &p.mu
	return p
}()

// job is one dispatch in flight. Units are claimed through the atomic
// cursor next; the fields below it are guarded by pool.mu.
type job struct {
	r     runner
	base  unsafe.Pointer
	n     int
	size  int
	units int
	next  atomic.Int64

	seq        uint64 // publication order
	helpers    int    // participants other than the caller inside work
	maxHelpers int    // Workers()-1 at publication, capped by the unit count
	closed     bool   // the caller has retracted the job: no helper may join

	failed  atomic.Bool
	failure any // the first panic raised by a unit
}

func (p *pool) run(r runner, base unsafe.Pointer, n, size, units, helpers int) {
	p.mu.Lock()
	for ; p.idle < helpers; p.idle++ {
		go p.helper()
	}
	var j *job
	if k := len(p.free); k > 0 {
		j, p.free = p.free[k-1], p.free[:k-1]
	} else {
		j = &job{}
	}
	p.seq++
	j.r, j.base, j.n, j.size, j.units, j.seq = r, base, n, size, units, p.seq
	j.next.Store(0)
	j.helpers, j.maxHelpers, j.closed = 0, helpers, false
	j.failed.Store(false)
	p.open = append(p.open, j)
	p.work.Broadcast()
	p.mu.Unlock()

	j.work()

	p.mu.Lock()
	for i, o := range p.open {
		if o == j {
			p.open = append(p.open[:i], p.open[i+1:]...)
			break
		}
	}
	j.closed = true
	// Until the helpers still running units of j have left, lend a hand to
	// dispatches published after j — among them every dispatch nested
	// under j's units — rather than idle. Older jobs are skipped: one of
	// them may be the job whose unit issued j, and re-entering it here
	// would only stack its units on top of this frame.
	for j.helpers > 0 {
		if k := p.joinable(j.seq); k != nil {
			p.participate(k)
			continue
		}
		p.work.Wait()
	}
	failure, failed := j.failure, j.failed.Load()
	j.r, j.base, j.failure = nil, nil, nil
	p.free = append(p.free, j)
	p.mu.Unlock()
	if failed {
		panic(failure)
	}
}

// helper is a persistent pool goroutine: it joins the oldest open dispatch
// that still has unclaimed units and room for it, works it dry, and looks
// again.
func (p *pool) helper() {
	p.mu.Lock()
	for {
		if j := p.joinable(0); j != nil {
			p.idle--
			p.participate(j)
			p.idle++
			continue
		}
		p.work.Wait()
	}
}

// participate works j dry as one of its helpers. It is entered and left
// with p.mu held; the last helper out of a retracted job wakes its caller.
func (p *pool) participate(j *job) {
	j.helpers++
	p.mu.Unlock()
	j.work()
	p.mu.Lock()
	j.helpers--
	if j.closed && j.helpers == 0 {
		p.work.Broadcast()
	}
}

// joinable returns the oldest open job published after seq that still has
// an unclaimed unit and room for another helper, or nil.
func (p *pool) joinable(after uint64) *job {
	for _, j := range p.open {
		if j.seq > after && j.helpers < j.maxHelpers && int(j.next.Load()) < j.units {
			return j
		}
	}
	return nil
}

// work claims and runs units until none are left. A panicking unit ends
// this participant's share — the others drain the rest — and the first
// panic is kept for the caller to re-raise.
func (j *job) work() {
	defer func() {
		if r := recover(); r != nil && j.failed.CompareAndSwap(false, true) {
			j.failure = r
		}
	}()
	for {
		u := int(j.next.Add(1)) - 1
		if u >= j.units {
			return
		}
		lo := u * j.size
		j.r.run(j.base, j.n, lo, min(lo+j.size, j.n))
	}
}
