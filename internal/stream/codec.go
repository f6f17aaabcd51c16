package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"
	"unsafe"

	"cloudlens/internal/core"
	"cloudlens/internal/parallel"
	"cloudlens/internal/sketch"
	"cloudlens/internal/trace"
)

// Checkpoint wire format, version 6 (DESIGN.md §8, §11). Everything is
// little-endian and fixed-width; nothing is compressed — the state is
// dense float32 rings that do not shrink.
//
//	envelope   magic [20] | version u32 | trace fingerprint u64 | family u32 |
//	           step nanos i64 | shard count u32 | last step i64 |
//	           samples i64 | steps i64 | folds i64
//	table      shard count × { section length u64 | section CRC-32C u32 }
//	           header CRC-32C u32 (over every byte before it)
//	sections   one per shard, in shard order
//
// Inside a section every Go int travels as i64, every int32/float32/float64
// at its own width, a bool as one 0/1 byte, a string or slice behind a u32
// element count, fixed arrays bare, and maps as count-prefixed entries in
// ascending key order — so one state has exactly one encoding. Each VM
// accumulator's classification evidence (alignment sums, serverless peak and
// idle count, the autocorrelation sketch) sits behind its own layout tag,
// evidenceLayout, which changes when the accumulator's shape does; the
// envelope version changes only when this framing does.
const (
	checkpointMagic = "cloudlens-checkpoint"
	// CheckpointVersion is the envelope version. v6 replaced the gob-under-
	// gzip stream of v1–v5 with the flat format above and is the first
	// version later builds promise to keep reading.
	CheckpointVersion = 6
	// evidenceLayout tags the per-accumulator evidence block.
	evidenceLayout = 1

	envelopeLen   = len(checkpointMagic) + 4 + 8 + 4 + 8 + 4 + 4*8
	tableEntryLen = 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen is the size of envelope, section table and header checksum.
func headerLen(shards int) int { return envelopeLen + shards*tableEntryLen + 4 }

// section is one shard's state in its wire form, with its CRC-32C.
type section struct {
	b   []byte
	sum uint32
}

// encodeSection lays one shard's state out as a checksummed section.
func encodeSection(sc *ShardCheckpoint) section {
	b := encodeShardSection(sc)
	return section{b: b, sum: crc32.Checksum(b, castagnoli)}
}

// writeSections writes the file for ck's group-level fields and the
// encoded sections, one per shard in shard order: the header in one Write,
// then one Write per section. It returns the bytes written.
func writeSections(w io.Writer, tr *trace.Trace, ck *Checkpoint, sections []section) (int64, error) {
	e := enc{b: make([]byte, 0, headerLen(len(sections)))}
	e.b = append(e.b, checkpointMagic...)
	e.u32(CheckpointVersion)
	e.u64(TraceFingerprint(tr))
	e.u32(uint32(tr.Family))
	e.i64(int64(tr.Grid.Step))
	e.u32(uint32(ck.ShardCount))
	e.int(ck.LastStep)
	e.i64(ck.SamplesIngested)
	e.i64(ck.StepsIngested)
	e.i64(ck.FoldCount)
	for _, s := range sections {
		e.u64(uint64(len(s.b)))
		e.u32(s.sum)
	}
	e.u32(crc32.Checksum(e.b, castagnoli))

	total := int64(len(e.b))
	if _, err := w.Write(e.b); err != nil {
		return 0, fmt.Errorf("stream: write checkpoint header: %w", err)
	}
	for i, s := range sections {
		if _, err := w.Write(s.b); err != nil {
			return 0, fmt.Errorf("stream: write checkpoint shard %d: %w", i, err)
		}
		total += int64(len(s.b))
	}
	return total, nil
}

// decodeCheckpoint parses and validates a whole checkpoint file held in
// memory. Checks run from cheapest and most specific to most expensive:
// magic and version, header checksum, the trace identity, then each
// section's checksum before its bytes are parsed.
func decodeCheckpoint(data []byte, tr *trace.Trace) (*Checkpoint, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		return nil, fmt.Errorf("stream: checkpoint is a gzip stream, the format of versions 1-5; this build reads version %d", CheckpointVersion)
	}
	if len(data) < len(checkpointMagic)+4 || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("stream: not a cloudlens checkpoint (%d bytes, no %q magic)", len(data), checkpointMagic)
	}
	if v := binary.LittleEndian.Uint32(data[len(checkpointMagic):]); v != CheckpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, this build reads %d", v, CheckpointVersion)
	}
	if len(data) < envelopeLen {
		return nil, fmt.Errorf("stream: checkpoint truncated: envelope needs %d bytes, file holds %d", envelopeLen, len(data))
	}
	d := dec{b: data[len(checkpointMagic)+4 : envelopeLen], total: envelopeLen}
	fingerprint := d.u64()
	family := core.Family(d.u32())
	stepNanos := d.i64()
	ck := &Checkpoint{ShardCount: int(d.u32())}
	ck.LastStep = d.int()
	ck.SamplesIngested = d.i64()
	ck.StepsIngested = d.i64()
	ck.FoldCount = d.i64()
	if ck.ShardCount < 1 || ck.ShardCount > MaxShards {
		return nil, fmt.Errorf("stream: checkpoint shard count %d outside [1, %d]", ck.ShardCount, MaxShards)
	}
	hdr := headerLen(ck.ShardCount)
	if len(data) < hdr {
		return nil, fmt.Errorf("stream: checkpoint truncated: %d-shard header needs %d bytes, file holds %d", ck.ShardCount, hdr, len(data))
	}
	if want, got := binary.LittleEndian.Uint32(data[hdr-4:]), crc32.Checksum(data[:hdr-4], castagnoli); want != got {
		return nil, fmt.Errorf("stream: checkpoint header checksum %08x does not match its bytes (%08x): corrupt file", want, got)
	}
	// Family and interval are part of the fingerprint too, but checking them
	// first turns an opaque hash mismatch into an actionable refusal: a
	// snapshot of one taxonomy or sampling interval must never seed the
	// accumulators of another.
	if !family.Valid() {
		return nil, fmt.Errorf("stream: checkpoint carries unknown workload family %d", int(family))
	}
	if family != tr.Family {
		return nil, fmt.Errorf("stream: checkpoint holds %s-family state, trace is the %s family", family, tr.Family)
	}
	if stepNanos != int64(tr.Grid.Step) {
		return nil, fmt.Errorf("stream: checkpoint was written on a %v grid, trace samples every %v", time.Duration(stepNanos), tr.Grid.Step)
	}
	if fp := TraceFingerprint(tr); fingerprint != fp {
		return nil, fmt.Errorf("stream: checkpoint fingerprint %016x does not match trace %016x (different seed, scale, or universe)", fingerprint, fp)
	}

	// The table must account for every byte after the header, which catches
	// a partial write before any section is checksummed or parsed.
	table, body := data[envelopeLen:hdr-4], data[hdr:]
	var need uint64
	for i := 0; i < ck.ShardCount; i++ {
		// Capped so MaxShards hostile lengths cannot wrap the sum.
		need += min(binary.LittleEndian.Uint64(table[i*tableEntryLen:]), 1<<56)
	}
	if need != uint64(len(body)) {
		return nil, fmt.Errorf("stream: checkpoint truncated or padded: its section table claims %d bytes, %d follow the header", need, len(body))
	}
	sections := make([][]byte, ck.ShardCount)
	for i := range sections {
		n := binary.LittleEndian.Uint64(table[i*tableEntryLen:])
		sections[i], body = body[:n], body[n:]
	}
	// One shard per worker, each section checksummed before it is parsed;
	// the refusal reported is the lowest damaged shard's, as a walk in
	// shard order would find it.
	ck.Shards = make([]*ShardCheckpoint, ck.ShardCount)
	errs := make([]error, ck.ShardCount)
	parallel.ForEach(ck.ShardCount, func(i int) {
		sum := binary.LittleEndian.Uint32(table[i*tableEntryLen+8:])
		if got := crc32.Checksum(sections[i], castagnoli); got != sum {
			errs[i] = fmt.Errorf("stream: checkpoint shard %d section checksum %08x does not match its bytes (%08x): corrupt file", i, sum, got)
			return
		}
		sc, err := decodeShardSection(sections[i])
		if err != nil {
			errs[i] = fmt.Errorf("stream: checkpoint shard %d: %w", i, err)
			return
		}
		ck.Shards[i] = sc
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	if err := ck.validate(tr); err != nil {
		return nil, err
	}
	return ck, nil
}

// encodeShardSection lays one shard's state out as a section: its parts in
// order.
func encodeShardSection(sc *ShardCheckpoint) []byte {
	// The lag rings are nearly all of a section; sizing for them up front
	// spares the buffer its doubling copies.
	hint := 0
	for i := range sc.Accs {
		hint += 4*len(sc.Accs[i].AC.Ring) + 1024
	}
	e := enc{b: make([]byte, 0, hint+hint/16+1<<16)}
	for _, p := range sectionParts {
		if p.count == nil {
			p.put(&e, sc, 0)
			continue
		}
		n := p.count(sc)
		e.count(n)
		for i := 0; i < n; i++ {
			p.put(&e, sc, i)
		}
	}
	return e.b
}

// sectionPart is one run of a shard section: a count-prefixed list of
// records, or, where count is nil, one record of bare fields that writes
// any counts it needs itself. label names a listed record, for
// DiffCheckpoints.
type sectionPart struct {
	name  string
	count func(sc *ShardCheckpoint) int
	put   func(e *enc, sc *ShardCheckpoint, i int)
	label func(sc *ShardCheckpoint, i int) string
}

// sectionParts is a shard section's layout, in order.
var sectionParts = [...]sectionPart{
	{name: "parameters and counters", put: putCounters},
	{name: "retired flags", put: func(e *enc, sc *ShardCheckpoint, _ int) {
		e.count(len(sc.Retired))
		for _, r := range sc.Retired {
			e.bool(r)
		}
	}},
	{
		name:  "reorder slots",
		count: func(sc *ShardCheckpoint) int { return len(sc.Slots) },
		put:   func(e *enc, sc *ShardCheckpoint, i int) { e.slot(&sc.Slots[i]) },
		label: func(sc *ShardCheckpoint, i int) string { return fmt.Sprintf("step %d", sc.Slots[i].Step) },
	},
	{
		name:  "subscriptions",
		count: func(sc *ShardCheckpoint) int { return len(sc.Subs) },
		put:   func(e *enc, sc *ShardCheckpoint, i int) { e.sub(&sc.Subs[i]) },
		label: func(sc *ShardCheckpoint, i int) string { return string(sc.Subs[i].ID) },
	},
	{
		name:  "accumulators",
		count: func(sc *ShardCheckpoint) int { return len(sc.Accs) },
		put:   func(e *enc, sc *ShardCheckpoint, i int) { e.acc(&sc.Accs[i]) },
		label: func(sc *ShardCheckpoint, i int) string { return fmt.Sprintf("VM %d", sc.Accs[i].Idx) },
	},
	{name: "clouds", put: putClouds},
}

func putCounters(e *enc, sc *ShardCheckpoint, _ int) {
	e.int(sc.LastStep)
	e.int(sc.Watermark)
	e.int(sc.FoldEverySteps)
	e.int(sc.MaxClassifyPerSub)
	e.int(sc.ShortBinMinutes)
	e.int(sc.MaxLatenessSteps)
	e.int(int(sc.GapPolicy))
	e.i64(sc.SamplesIngested)
	e.i64(sc.StepsIngested)
	e.i64(sc.FoldCount)
	f := &sc.Faults
	e.i64(f.Reordered)
	e.i64(f.DuplicatesDropped)
	e.i64(f.QuarantinedCorrupt)
	e.i64(f.QuarantinedLate)
	e.i64(f.GapsFilled)
	e.i64(f.GapsSkipped)
	e.int(f.WatermarkLag)
}

func (e *enc) slot(st *slotState) {
	e.int(st.Step)
	e.i32s(st.VM)
	e.f32s(st.CPU)
	e.count(len(st.Extras))
	for _, s := range st.Extras {
		e.i32(s.VM)
		e.i32(s.Step)
		e.f64(s.CPU)
	}
	e.i32s(st.Deleted)
}

func (e *enc) sub(ss *subStateState) {
	e.str(string(ss.ID))
	e.int(int(ss.Cloud))
	e.strs(ss.Regions)
	e.strs(ss.Services)
	e.int(ss.VMsObserved)
	e.int(ss.SnapshotVMs)
	e.int(ss.SnapshotCores)
	e.f64s(ss.Lifetimes)
	e.int(ss.ShortLived)
	e.histogram(&ss.Util)
	e.count(len(ss.Retired))
	for j := range ss.Retired {
		c := &ss.Retired[j]
		e.i32(c.Idx)
		e.int(int(c.Pattern))
		e.f64(c.UtilSum)
		e.int(c.N)
		e.hourly(&c.Hourly, &c.HourlyN)
	}
	e.count(len(ss.RegionHours))
	for _, r := range sortedKeys(ss.RegionHours) {
		rh := ss.RegionHours[r]
		e.str(r)
		e.f64s(rh.Sum)
		e.f64s(rh.N)
	}
}

func (e *enc) acc(a *vmAccState) {
	e.i32(a.Idx)
	e.int(a.From)
	e.bool(a.Seen)
	e.int(a.Next)
	e.f64(a.Last)
	e.bool(a.Qualified)
	e.hourly(&a.Hourly, &a.HourlyN)
	e.i32s(a.GapSteps)

	e.u8(evidenceLayout)
	e.f64(a.PeakSum)
	e.f64(a.RestSum)
	e.int(a.PeakN)
	e.int(a.RestN)
	e.f64(a.PeakMax)
	e.int(a.IdleN)
	e.count(len(a.AC.Lags))
	for _, l := range a.AC.Lags {
		e.int(l)
	}
	e.f32s(a.AC.Ring)
	e.i64(a.AC.W.N)
	e.f64(a.AC.W.Mean)
	e.f64(a.AC.W.M2)
	e.f64(a.AC.Sum)
	e.f64s(a.AC.SumProd)
	e.f64s(a.AC.HeadSum)
	e.f64s(a.AC.TailSum)
}

func putClouds(e *enc, sc *ShardCheckpoint, _ int) {
	clouds := make([]core.Cloud, 0, len(sc.Clouds))
	for c := range sc.Clouds {
		clouds = append(clouds, c)
	}
	slices.Sort(clouds)
	e.count(len(clouds))
	for _, c := range clouds {
		cs := sc.Clouds[c]
		e.int(int(c))
		e.histogram(&cs.Util)
		e.i64(cs.Samples)
		e.i64(cs.VMsSeen)
	}
}

// DiffCheckpoints reports where two checkpoint files of tr first differ:
// nil when they are the same bytes, else an error naming the envelope field,
// or the shard, the section part and (in a listed part) the record. One
// state has one encoding, so two engines hold the same state exactly when
// their files are equal.
func DiffCheckpoints(tr *trace.Trace, a, b []byte) error {
	if string(a) == string(b) {
		return nil
	}
	ca, err := decodeCheckpoint(a, tr)
	if err != nil {
		return fmt.Errorf("stream: first checkpoint: %w", err)
	}
	cb, err := decodeCheckpoint(b, tr)
	if err != nil {
		return fmt.Errorf("stream: second checkpoint: %w", err)
	}
	for _, f := range []struct {
		name string
		a, b int64
	}{
		{"shard count", int64(ca.ShardCount), int64(cb.ShardCount)},
		{"last step", int64(ca.LastStep), int64(cb.LastStep)},
		{"samples ingested", ca.SamplesIngested, cb.SamplesIngested},
		{"steps ingested", ca.StepsIngested, cb.StepsIngested},
		{"fold count", ca.FoldCount, cb.FoldCount},
	} {
		if f.a != f.b {
			return fmt.Errorf("stream: checkpoints differ in the envelope's %s: %d against %d", f.name, f.a, f.b)
		}
	}
	for i := range ca.Shards {
		if where := diffSections(ca.Shards[i], cb.Shards[i]); where != "" {
			return fmt.Errorf("stream: checkpoints differ in shard %d's %s", i, where)
		}
	}
	return fmt.Errorf("stream: checkpoints of %d and %d bytes decode alike", len(a), len(b))
}

// diffSections names the first part, and record, where two shard sections'
// encodings differ; "" when they are equal.
func diffSections(a, b *ShardCheckpoint) string {
	record := func(p *sectionPart, sc *ShardCheckpoint, i int) string {
		var e enc
		p.put(&e, sc, i)
		return string(e.b)
	}
	for k := range sectionParts {
		p := &sectionParts[k]
		if p.count == nil {
			if record(p, a, 0) != record(p, b, 0) {
				return p.name
			}
			continue
		}
		na, nb := p.count(a), p.count(b)
		for i := 0; i < min(na, nb); i++ {
			if record(p, a, i) != record(p, b, i) {
				return fmt.Sprintf("%s, record %d (%s against %s)", p.name, i, p.label(a, i), p.label(b, i))
			}
		}
		if na != nb {
			return fmt.Sprintf("%s: %d records against %d", p.name, na, nb)
		}
	}
	return ""
}

// Smallest encodings of the variable-size records, which bound how many of
// them a count prefix may claim against the bytes left in the section.
const (
	minHistogramLen = 8 + 8 + 4 + 8
	minSlotLen      = 8 + 4*4
	sampleLen       = 4 + 4 + 8
	hourlyLen       = 24 * (8 + 8)
	classifiedLen   = 4 + 8 + 8 + 8 + hourlyLen
	minSubLen       = 4 + 8 + 4 + 4 + 3*8 + 4 + 8 + minHistogramLen + 4 + 4
	minRegionLen    = 4 + 4 + 4
	minAccLen       = 4 + 8 + 1 + 8 + 8 + 1 + hourlyLen + 4 + 1 + 6*8 + 4 + 4 + 3*8 + 8 + 3*4
	minCloudLen     = 8 + minHistogramLen + 8 + 8
)

// decodeShardSection parses one section back into the DTO it was encoded
// from. It trusts nothing: every count prefix is checked against the bytes
// remaining before anything is allocated, so a hostile section can make the
// decoder allocate no more than a small multiple of its own length, and the
// result still has to pass ShardCheckpoint.validate. Bytes left over after
// the last field are an error.
func decodeShardSection(b []byte) (*ShardCheckpoint, error) {
	d := dec{b: b, total: len(b)}
	sc := &ShardCheckpoint{
		LastStep:          d.int(),
		Watermark:         d.int(),
		FoldEverySteps:    d.int(),
		MaxClassifyPerSub: d.int(),
		ShortBinMinutes:   d.int(),
		MaxLatenessSteps:  d.int(),
		GapPolicy:         GapPolicy(d.int()),
		SamplesIngested:   d.i64(),
		StepsIngested:     d.i64(),
		FoldCount:         d.i64(),
		Faults: FaultStats{
			Reordered:          d.i64(),
			DuplicatesDropped:  d.i64(),
			QuarantinedCorrupt: d.i64(),
			QuarantinedLate:    d.i64(),
			GapsFilled:         d.i64(),
			GapsSkipped:        d.i64(),
			WatermarkLag:       d.int(),
		},
	}

	sc.Retired = make([]bool, d.count(1))
	for i := range sc.Retired {
		sc.Retired[i] = d.bool()
	}

	sc.Slots = make([]slotState, d.count(minSlotLen))
	for i := range sc.Slots {
		st := &sc.Slots[i]
		st.Step = d.int()
		st.VM = d.i32s()
		st.CPU = d.f32s()
		st.Extras = make([]Sample, d.count(sampleLen))
		for j := range st.Extras {
			st.Extras[j] = Sample{VM: d.i32(), Step: d.i32(), CPU: d.f64()}
		}
		st.Deleted = d.i32s()
	}

	sc.Subs = make([]subStateState, d.count(minSubLen))
	for i := range sc.Subs {
		ss := &sc.Subs[i]
		ss.ID = core.SubscriptionID(d.str())
		ss.Cloud = core.Cloud(d.int())
		ss.Regions = d.strs()
		ss.Services = d.strs()
		ss.VMsObserved = d.int()
		ss.SnapshotVMs = d.int()
		ss.SnapshotCores = d.int()
		ss.Lifetimes = d.f64s()
		ss.ShortLived = d.int()
		ss.Util = d.histogram()
		ss.Retired = make([]classifiedVMState, d.count(classifiedLen))
		for j := range ss.Retired {
			c := &ss.Retired[j]
			c.Idx = d.i32()
			c.Pattern = core.Pattern(d.int())
			c.UtilSum = d.f64()
			c.N = d.int()
			d.hourly(&c.Hourly, &c.HourlyN)
		}
		n := d.count(minRegionLen)
		ss.RegionHours = make(map[string]regionHourState, n)
		prev := ""
		for j := 0; j < n; j++ {
			r := d.str()
			if j > 0 && r <= prev {
				d.fail("region %q follows %q: map keys must ascend", r, prev)
			}
			prev = r
			ss.RegionHours[r] = regionHourState{Sum: d.f64s(), N: d.f64s()}
		}
	}

	sc.Accs = make([]vmAccState, d.count(minAccLen))
	for i := range sc.Accs {
		a := &sc.Accs[i]
		a.Idx = d.i32()
		a.From = d.int()
		a.Seen = d.bool()
		a.Next = d.int()
		a.Last = d.f64()
		a.Qualified = d.bool()
		d.hourly(&a.Hourly, &a.HourlyN)
		a.GapSteps = d.i32s()

		if tag := d.u8(); tag != evidenceLayout && d.err == nil {
			d.fail("accumulator for VM %d carries evidence layout %d, this build reads %d", a.Idx, tag, evidenceLayout)
		}
		a.PeakSum = d.f64()
		a.RestSum = d.f64()
		a.PeakN = d.int()
		a.RestN = d.int()
		a.PeakMax = d.f64()
		a.IdleN = d.int()
		a.AC.Lags = make([]int, d.count(8))
		for j := range a.AC.Lags {
			a.AC.Lags[j] = d.int()
		}
		a.AC.Ring = d.f32s()
		a.AC.W = sketch.WelfordState{N: d.i64(), Mean: d.f64(), M2: d.f64()}
		a.AC.Sum = d.f64()
		a.AC.SumProd = d.f64s()
		a.AC.HeadSum = d.f64s()
		a.AC.TailSum = d.f64s()
	}

	n := d.count(minCloudLen)
	sc.Clouds = make(map[core.Cloud]cloudStateState, n)
	for j, prev := 0, core.Cloud(0); j < n; j++ {
		c := core.Cloud(d.int())
		if j > 0 && c <= prev {
			d.fail("cloud %d follows %d: map keys must ascend", int(c), int(prev))
		}
		prev = c
		sc.Clouds[c] = cloudStateState{Util: d.histogram(), Samples: d.i64(), VMsSeen: d.i64()}
	}

	if d.err == nil && len(d.b) != 0 {
		d.fail("%d bytes left over after the last field", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return sc, nil
}

// enc appends fixed-width little-endian values to a buffer.
type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) int(v int)     { e.u64(uint64(int64(v))) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) count(n int)   { e.u32(uint32(n)) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) str(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *enc) strs(v []string) {
	e.count(len(v))
	for _, s := range v {
		e.str(s)
	}
}

// slab reserves n elements of the given width behind a count prefix and
// returns the reserved bytes for the caller to fill.
func (e *enc) slab(n, width int) []byte {
	e.count(n)
	off := len(e.b)
	e.b = slices.Grow(e.b, n*width)[:off+n*width]
	return e.b[off:]
}

func (e *enc) i32s(v []int32) {
	p := e.slab(len(v), 4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(x))
	}
}

func (e *enc) f32s(v []float32) { putF32s(e.slab(len(v), 4), v, nativeLittleEndian) }
func (e *enc) f64s(v []float64) { putF64s(e.slab(len(v), 8), v, nativeLittleEndian) }

func (e *enc) hourly(sum *[24]float64, n *[24]int) {
	for _, x := range sum {
		e.f64(x)
	}
	for _, x := range n {
		e.int(x)
	}
}

func (e *enc) histogram(h *sketch.HistogramState) {
	e.f64(h.Lo)
	e.f64(h.Hi)
	e.f64s(h.Counts)
	e.i64(h.N)
}

// dec consumes what enc wrote. The first failure sticks: every later read
// returns zero values and empty slices, so the section parser reads straight
// through and checks err once.
type dec struct {
	b     []byte
	total int // bytes the decoder started with, for offsets in errors
	err   error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("at offset %d: %s", d.total-len(d.b), fmt.Sprintf(format, args...))
	}
}

// take consumes n bytes, or fails and returns nil.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail("truncated: field needs %d bytes, %d remain", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) int() int     { return int(int64(d.u64())) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail("boolean byte holds %d", v)
	}
	return v == 1
}

// count reads an element count and refuses one whose elements, at width
// bytes apiece at the least, could not fit in what remains of the section.
func (d *dec) count(width int) int {
	n := d.u32()
	if uint64(n)*uint64(width) > uint64(len(d.b)) {
		d.fail("count %d of %d-byte elements exceeds the %d bytes remaining", n, width, len(d.b))
		return 0
	}
	return int(n)
}

func (d *dec) str() string { return string(d.take(d.count(1))) }

func (d *dec) strs() []string {
	v := make([]string, d.count(4))
	for i := range v {
		v[i] = d.str()
	}
	return v
}

// slab returns the bytes of a count-prefixed run of fixed-width elements
// and the element count, (nil, 0) once the decoder has failed.
func (d *dec) slab(width int) ([]byte, int) {
	n := d.count(width)
	return d.take(n * width), n
}

func (d *dec) i32s() []int32 {
	p, n := d.slab(4)
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return v
}

func (d *dec) f32s() []float32 {
	p, n := d.slab(4)
	v := make([]float32, n)
	getF32s(v, p, nativeLittleEndian)
	return v
}

func (d *dec) f64s() []float64 {
	p, n := d.slab(8)
	v := make([]float64, n)
	getF64s(v, p, nativeLittleEndian)
	return v
}

func (d *dec) hourly(sum *[24]float64, n *[24]int) {
	for i := range sum {
		sum[i] = d.f64()
	}
	for i := range n {
		n[i] = d.int()
	}
}

func (d *dec) histogram() sketch.HistogramState {
	return sketch.HistogramState{Lo: d.f64(), Hi: d.f64(), Counts: d.f64s(), N: d.i64()}
}

// The float slabs — the lag rings, nearly all of a file, then the per-lag
// sums, histogram counts and hourly region sums — are little-endian IEEE
// 754 on the wire, which is how a little-endian host already holds them in
// memory. There a slab moves as one copy of its bytes (bulk); elsewhere it
// moves element by element. Both write and read the same bits, NaN
// payloads included (TestCheckpointSlabBulkMatchesPortable).
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf views a slab's memory as bytes.
func bytesOf[T float32 | float64](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(T(0))))
}

// putF32s writes v into p, which holds exactly 4*len(v) bytes.
func putF32s(p []byte, v []float32, bulk bool) {
	if bulk {
		copy(p, bytesOf(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(x))
	}
}

// getF32s reads v back from p, which holds exactly 4*len(v) bytes.
func getF32s(v []float32, p []byte, bulk bool) {
	if bulk {
		copy(bytesOf(v), p)
		return
	}
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

// putF64s writes v into p, which holds exactly 8*len(v) bytes.
func putF64s(p []byte, v []float64, bulk bool) {
	if bulk {
		copy(p, bytesOf(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(x))
	}
}

// getF64s reads v back from p, which holds exactly 8*len(v) bytes.
func getF64s(v []float64, p []byte, bulk bool) {
	if bulk {
		copy(bytesOf(v), p)
		return
	}
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// firstError returns the lowest-indexed error of a per-shard fan-out, the
// one a walk in shard order would have stopped at.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
