package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"cloudlens/internal/core"
	"cloudlens/internal/sim"
	"cloudlens/internal/trace"
	"cloudlens/internal/usage"
)

// quadTrace is a week with one always-on VM in each of four subscriptions.
// The names differ only in their last byte, whose low two bits pick the
// FNV-1a hash's residue mod 4, so at four shards every shard owns one.
func quadTrace(t *testing.T) *trace.Trace {
	t.Helper()
	g := sim.WeekGrid()
	tr := &trace.Trace{Grid: g}
	for i := 0; i < 4; i++ {
		tr.VMs = append(tr.VMs, trace.VM{
			ID:           core.VMID(i),
			Subscription: core.SubscriptionID(fmt.Sprintf("sub-%d", i)),
			Service:      "svc",
			Cloud:        core.Private,
			Region:       "r1",
			Size:         core.VMSize{Cores: 2, MemoryGB: 8},
			CreatedStep:  0,
			DeletedStep:  g.N,
			Usage:        usage.Diurnal(0.3, 0.2, 14*60, uint64(i+1)),
		})
	}
	keys := tr.Keys()
	seen := make(map[uint64]bool)
	for _, h := range keys.SubHash {
		seen[h%4] = true
	}
	if len(seen) != 4 {
		t.Fatalf("quadTrace's subscriptions cover %d of 4 shards", len(seen))
	}
	return tr
}

// quadEngine replays quadTrace on four shards up to step 300, so every
// shard holds a live accumulator with a partly filled lag ring.
func quadEngine(t *testing.T) (*trace.Trace, *shardGroup) {
	t.Helper()
	tr := quadTrace(t)
	eng := engineAt(t, tr, Options{FoldEverySteps: 12, Shards: 4}, 300).(*shardGroup)
	t.Cleanup(eng.Abort)
	return tr, eng
}

// TestCheckpointFirstErrorIsLowestShard pins which refusal a file with two
// damaged sections draws: shard 1's, whatever shard 2 carries, and however
// the sections are checked. Each damage alone is refused too, so shard 2's
// is a real one.
func TestCheckpointFirstErrorIsLowestShard(t *testing.T) {
	tr, eng := quadEngine(t)
	var buf bytes.Buffer
	if err := eng.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	hdr := headerLen(4)
	// sectionAt returns where shard i's section starts and how long it is.
	sectionAt := func(data []byte, i int) (int, int) {
		off := hdr
		for j := 0; j < i; j++ {
			off += int(binary.LittleEndian.Uint64(data[envelopeLen+j*tableEntryLen:]))
		}
		return off, int(binary.LittleEndian.Uint64(data[envelopeLen+i*tableEntryLen:]))
	}
	// Damage that leaves the checksum wrong, and damage under a checksum
	// that matches: the section's first count prefix (the retired flags,
	// after 17 eight-byte fields) claims far more elements than follow.
	damage := map[string]func(data []byte, i int){
		"bad checksum": func(data []byte, i int) {
			off, n := sectionAt(data, i)
			data[off+n/2] ^= 0x01
		},
		"bad count prefix": func(data []byte, i int) {
			off, n := sectionAt(data, i)
			binary.LittleEndian.PutUint32(data[off+17*8:], 0xffffffff)
			binary.LittleEndian.PutUint32(data[envelopeLen+i*tableEntryLen+8:], crc32.Checksum(data[off:off+n], castagnoli))
			binary.LittleEndian.PutUint32(data[hdr-4:], crc32.Checksum(data[:hdr-4], castagnoli))
		},
	}
	refusal := func(what string, data []byte) string {
		t.Helper()
		_, err := ReadCheckpoint(bytes.NewReader(data), tr)
		if err == nil {
			t.Fatalf("%s: accepted", what)
		}
		return err.Error()
	}
	for name, mut := range damage {
		for i := 1; i <= 2; i++ {
			data := bytes.Clone(valid)
			mut(data, i)
			if msg := refusal(fmt.Sprintf("%s in shard %d", name, i), data); !strings.Contains(msg, fmt.Sprintf("shard %d", i)) {
				t.Errorf("%s in shard %d: refusal %q names another shard", name, i, msg)
			}
		}
	}
	for name1, mut1 := range damage {
		for name2, mut2 := range damage {
			data := bytes.Clone(valid)
			mut1(data, 1)
			mut2(data, 2)
			msg := refusal(name1+" in shard 1, "+name2+" in shard 2", data)
			if !strings.Contains(msg, "shard 1") || strings.Contains(msg, "shard 2") {
				t.Errorf("%s in shard 1, %s in shard 2: refused with %q, want shard 1's refusal", name1, name2, msg)
			}
		}
	}
}

// TestRestoreFirstErrorIsLowestShard is the restore's half: with two
// shards whose sketches cannot be rebuilt, RestoreEngine reports shard 1.
func TestRestoreFirstErrorIsLowestShard(t *testing.T) {
	tr, eng := quadEngine(t)
	opts := Options{FoldEverySteps: 12, Shards: 4}
	// Neither damage is a domain error validate catches; both surface only
	// when the autocorrelation sketch is rebuilt.
	shortRing := func(sc *ShardCheckpoint) { a := &sc.Accs[0].AC; a.Ring = a.Ring[:len(a.Ring)-1] }
	shortSums := func(sc *ShardCheckpoint) { a := &sc.Accs[0].AC; a.SumProd = a.SumProd[:len(a.SumProd)-1] }
	for _, i := range []int{1, 2} {
		for name, mut := range map[string]func(*ShardCheckpoint){"short ring": shortRing, "short sums": shortSums} {
			ck := checkpointFrom(t, tr, eng)
			if len(ck.Shards[i].Accs) == 0 {
				t.Fatalf("shard %d holds no accumulator", i)
			}
			mut(ck.Shards[i])
			_, err := RestoreEngine(tr, opts, ck)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("restore shard %d", i)) {
				t.Errorf("%s in shard %d: restore error %v", name, i, err)
			}
		}
	}
	for _, muts := range [][2]func(*ShardCheckpoint){{shortRing, shortSums}, {shortSums, shortRing}, {shortRing, shortRing}} {
		ck := checkpointFrom(t, tr, eng)
		muts[0](ck.Shards[1])
		muts[1](ck.Shards[2])
		_, err := RestoreEngine(tr, opts, ck)
		if err == nil || !strings.Contains(err.Error(), "restore shard 1") || strings.Contains(err.Error(), "shard 2") {
			t.Errorf("shards 1 and 2 damaged: restore error %v, want shard 1's", err)
		}
	}
}
