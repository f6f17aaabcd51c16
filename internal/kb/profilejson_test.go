package kb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cloudlens/internal/core"
)

// edgeProfiles covers what the canonical encoder must render exactly as
// encoding/json does: zero and nonzero family, nil against empty slices
// and maps, pattern keys that sort differently as strings than as
// numbers, both float formats and their cut-offs, -0, and strings needing
// every kind of escape.
func edgeProfiles() []*Profile {
	return []*Profile{
		{},
		{Subscription: "nil-vs-empty", Services: []string{}, Regions: []string{}, PatternShares: map[core.Pattern]float64{}},
		{
			Subscription: "keys", Cloud: core.Public, Family: core.FamilyServerless,
			Services: []string{"a", ""}, Regions: []string{"r1"},
			PatternShares:   map[core.Pattern]float64{2: 0.25, 10: 0.5, 1: 0.125, -3: 1, 100: 0},
			DominantPattern: 10, PeakHourUTC: -1, RegionAgnosticScore: -1,
		},
		{
			Subscription:      `esc "\ <b>&amp; ` + "\x00\x1f\x7f\t\n\r\b\f \u2028\u2029 \xff\xfe é 日本",
			Services:          []string{"\u2028", "<script>", "\xc3"},
			MedianLifetimeMin: 1e-6, ShortLivedShare: 9.99e-7, MeanUtilization: 1e21,
			RegionAgnosticScore: 999999999999999900000, VMsObserved: -7, SnapshotVMs: math.MaxInt64,
			SnapshotCores: math.MinInt64,
			PatternShares: map[core.Pattern]float64{core.PatternDiurnal: math.Copysign(0, -1)},
		},
		{
			Subscription: "floats", MedianLifetimeMin: 5e-324, ShortLivedShare: -1.5e-10,
			MeanUtilization: math.MaxFloat64, RegionAgnosticScore: 0.1 + 0.2,
			PatternShares: map[core.Pattern]float64{3: 1.0 / 3, 4: 123456789.125, 5: -2e-7},
		},
	}
}

// TestNonFiniteFloatsEncodeNull pins the documented departure from
// encoding/json, which refuses NaN and ±Inf: the encoder writes null, and
// the fingerprint and the bodies are cut from the same bytes.
func TestNonFiniteFloatsEncodeNull(t *testing.T) {
	p := &Profile{Subscription: "nan", MeanUtilization: math.NaN(), RegionAgnosticScore: math.Inf(-1),
		PatternShares: map[core.Pattern]float64{1: math.Inf(1)}}
	got := string(AppendProfileJSON(nil, p))
	for _, want := range []string{`"meanUtilization":null`, `"regionAgnosticScore":null`, `"patternShares":{"1":null}`} {
		if !strings.Contains(got, want) {
			t.Errorf("%s lacks %s", got, want)
		}
	}
	if !json.Valid([]byte(got)) {
		t.Errorf("not valid JSON: %s", got)
	}
	sn := SnapshotOf(0, 0, p)
	h := fnv.New64a()
	_, _ = h.Write(append([]byte(got), '\n'))
	if want := fmt.Sprintf("fnv1a:%016x", h.Sum64()); sn.Fingerprint() != want {
		t.Errorf("fingerprint %s, want %s over the body bytes", sn.Fingerprint(), want)
	}
}

// FuzzAppendProfileJSON holds the canonical encoder byte-equal to
// encoding/json on arbitrary finite profiles, and the fingerprint equal to
// the one json.Encoder's output gave. The slices are cut from
// strings at \x1f; nils selects which of Services, Regions and
// PatternShares are nil (bits 0-2); shares is read as (key byte as int8,
// float64 bits) records.
func FuzzAppendProfileJSON(f *testing.F) {
	for _, p := range edgeProfiles() {
		var nils uint8
		if p.Services == nil {
			nils |= 1
		}
		if p.Regions == nil {
			nils |= 2
		}
		if p.PatternShares == nil {
			nils |= 4
		}
		var shares []byte
		for k, v := range p.PatternShares {
			shares = append(shares, byte(int8(k)))
			shares = binary.LittleEndian.AppendUint64(shares, math.Float64bits(v))
		}
		f.Add(string(p.Subscription), strings.Join(p.Services, "\x1f"), strings.Join(p.Regions, "\x1f"), nils,
			int(p.Cloud), int(p.Family), p.VMsObserved, p.SnapshotVMs, p.SnapshotCores,
			p.MedianLifetimeMin, p.ShortLivedShare, shares, int(p.DominantPattern),
			p.MeanUtilization, p.RegionAgnosticScore, p.PeakHourUTC)
	}
	split := func(s string, isNil bool) []string {
		switch {
		case isNil:
			return nil
		case s == "":
			return []string{}
		}
		return strings.Split(s, "\x1f")
	}
	f.Fuzz(func(t *testing.T, sub, services, regions string, nils uint8,
		cloud, family, vms, snapVMs, cores int, median, short float64, shares []byte,
		dominant int, mean, agnostic float64, peak int) {
		p := &Profile{
			Subscription: core.SubscriptionID(sub), Cloud: core.Cloud(cloud), Family: core.Family(family),
			Services: split(services, nils&1 != 0), Regions: split(regions, nils&2 != 0),
			VMsObserved: vms, SnapshotVMs: snapVMs, SnapshotCores: cores,
			MedianLifetimeMin: median, ShortLivedShare: short,
			DominantPattern: core.Pattern(dominant), MeanUtilization: mean,
			RegionAgnosticScore: agnostic, PeakHourUTC: peak,
		}
		if nils&4 == 0 {
			p.PatternShares = make(map[core.Pattern]float64)
			for ; len(shares) >= 9; shares = shares[9:] {
				p.PatternShares[core.Pattern(int8(shares[0]))] = math.Float64frombits(binary.LittleEndian.Uint64(shares[1:9]))
			}
		}
		floats := []float64{median, short, mean, agnostic}
		for _, v := range p.PatternShares {
			floats = append(floats, v)
		}
		for _, v := range floats {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("encoding/json refuses non-finite floats")
			}
		}
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", p, err)
		}
		if got := AppendProfileJSON(nil, p); !bytes.Equal(got, want) {
			t.Fatalf("AppendProfileJSON differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		// The fingerprint is still json.Encoder's output under FNV-1a.
		h := fnv.New64a()
		_ = json.NewEncoder(h).Encode(p)
		if got, want := SnapshotOf(0, 0, p).Fingerprint(), fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
			t.Fatalf("fingerprint %s, json.Encoder's %s", got, want)
		}
	})
}

// pagedKB holds n profiles over both clouds, varied enough for every
// filter to split them.
func pagedKB(n int) *Snapshot {
	var profiles []*Profile
	for i := 0; i < n; i++ {
		profiles = append(profiles, &Profile{
			Subscription:        core.SubscriptionID(fmt.Sprintf("sub-%05d", i)),
			Cloud:               core.Clouds()[i%2],
			Services:            []string{"svc"},
			Regions:             []string{"r1", "r2"}[:1+i%2],
			ShortLivedShare:     float64(i%7) / 7,
			PatternShares:       map[core.Pattern]float64{core.Pattern(1 + i%4): 1},
			DominantPattern:     core.Pattern(1 + i%4),
			MeanUtilization:     float64(i) / float64(n),
			RegionAgnosticScore: float64(i%5)/5 - 0.5,
			PeakHourUTC:         i % 24,
		})
	}
	return SnapshotOf(1, 1, profiles...)
}

// TestWriteProfileListMatchesPaginate holds the one-pass listing writer to
// what the routes wrote before it: encoding/json over Snapshot.List's
// result, or over Paginate's page of it.
func TestWriteProfileListMatchesPaginate(t *testing.T) {
	sn := pagedKB(57)
	key := func(p *Profile) string { return string(p.Subscription) }
	queries := map[string]Query{
		"all":     MatchAll(),
		"public":  {Cloud: core.Public, MinRegionAgnosticScore: disabledScore},
		"pattern": {Pattern: core.PatternStable, MinRegionAgnosticScore: 0},
		"none":    {MinShortLivedShare: 2, MinRegionAgnosticScore: disabledScore},
	}
	pages := []Page{{}, {Limit: 1}, {Limit: 7}, {Limit: 1000}, {Cursor: EncodeCursor("sub-00010")},
		{Limit: 5, Cursor: EncodeCursor("sub-00050")}, {Limit: 5, Cursor: EncodeCursor("zzz")}, {Limit: 3, Cursor: EncodeCursor("")}}
	for name, q := range queries {
		for _, pg := range pages {
			var want []byte
			if !pg.Enabled() {
				want = EncodeJSON(sn.List(q))
			} else {
				page, err := Paginate(sn.List(q), key, pg)
				if err != nil {
					t.Fatal(err)
				}
				want = EncodeJSON(page)
			}
			rec := httptest.NewRecorder()
			WriteProfileList(rec, httptest.NewRequest(http.MethodGet, "/", nil), sn, sn, q, pg)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s %+v: %d\n got %s\nwant %s", name, pg, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}
	rec := httptest.NewRecorder()
	WriteProfileList(rec, httptest.NewRequest(http.MethodGet, "/", nil), sn, sn, MatchAll(), Page{Cursor: "zzz!"})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad_cursor") {
		t.Errorf("bad cursor: %d %s", rec.Code, rec.Body.String())
	}
}
