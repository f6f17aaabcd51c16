package kb

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	for _, key := range []string{"", "sub-1", "prv/sub with spaces+%"} {
		got, err := DecodeCursor(EncodeCursor(key))
		if err != nil || got != key {
			t.Errorf("round-trip %q: got %q, %v", key, got, err)
		}
	}
	for _, bad := range []string{"not-base64!", "cGxhaW4", ""} {
		if _, err := DecodeCursor(bad); err == nil {
			t.Errorf("DecodeCursor(%q) accepted", bad)
		}
	}
}

func TestPaginate(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	ident := func(s string) string { return s }

	page, err := Paginate(items, ident, Page{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := page.Items.([]string); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("first page %v", got)
	}
	if page.Total != 5 || page.NextCursor == "" {
		t.Fatalf("first page envelope: %+v", page)
	}

	// Follow the cursor to the end; the walk must be exhaustive and
	// duplicate-free.
	var walked []string
	pg := Page{Limit: 2}
	for {
		p, err := Paginate(items, ident, pg)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, p.Items.([]string)...)
		if p.NextCursor == "" {
			break
		}
		pg.Cursor = p.NextCursor
	}
	if fmt.Sprint(walked) != fmt.Sprint(items) {
		t.Errorf("cursor walk got %v, want %v", walked, items)
	}

	// A cursor past the last key yields an empty page that encodes as
	// items: [], not null.
	end, err := Paginate(items, ident, Page{Limit: 2, Cursor: EncodeCursor("zzz")})
	if err != nil {
		t.Fatal(err)
	}
	if got := end.Items.([]string); len(got) != 0 || got == nil {
		t.Errorf("past-the-end page items = %#v, want empty non-nil", got)
	}
	if end.NextCursor != "" {
		t.Errorf("past-the-end page still has a cursor %q", end.NextCursor)
	}

	if _, err := Paginate(items, ident, Page{Cursor: "garbage!"}); err == nil {
		t.Error("garbage cursor accepted")
	}
}

// TestPaginateEdges pins the keyset boundaries: a limit landing exactly on
// the last item, a cursor naming a key that was deleted between pages, and
// a cursor equal to the final key.
func TestPaginateEdges(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	ident := func(s string) string { return s }

	// Limit exactly covering the remainder must not issue a cursor that
	// would lead to a guaranteed-empty extra round trip.
	exact, err := Paginate(items, ident, Page{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.Items.([]string); len(got) != 5 || exact.NextCursor != "" {
		t.Errorf("limit==len page: %d items, cursor %q; want 5 items and no cursor", len(got), exact.NextCursor)
	}

	// One short of the boundary must still page.
	almost, err := Paginate(items, ident, Page{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := almost.Items.([]string); len(got) != 4 || almost.NextCursor == "" {
		t.Errorf("limit==len-1 page: %d items, cursor %q; want 4 items and a cursor", len(got), almost.NextCursor)
	}

	// A cursor for a key deleted since the last page resumes at the next
	// surviving key — no skip, no duplicate.
	after, err := Paginate([]string{"a", "b", "d", "e"}, ident, Page{Limit: 2, Cursor: EncodeCursor("c")})
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Items.([]string); len(got) != 2 || got[0] != "d" || got[1] != "e" {
		t.Errorf("deleted-key cursor resumed at %v, want [d e]", got)
	}

	// A cursor naming the final key yields the empty terminal page.
	fin, err := Paginate(items, ident, Page{Limit: 2, Cursor: EncodeCursor("e")})
	if err != nil {
		t.Fatal(err)
	}
	if got := fin.Items.([]string); len(got) != 0 || fin.NextCursor != "" {
		t.Errorf("final-key cursor page: %v cursor %q, want empty and no cursor", got, fin.NextCursor)
	}
}

// TestPaginateUnderConcurrentIngestion walks a cursor while the listing
// fills in underneath it, the live-route scenario. Keyset semantics promise
// the walk never duplicates a key and never skips a key that existed when
// the walk started; keys inserted ahead of the cursor appear exactly once.
func TestPaginateUnderConcurrentIngestion(t *testing.T) {
	ident := func(s string) string { return s }
	// Even keys exist up front; odd keys stream in between pages.
	var items []string
	for i := 0; i < 20; i += 2 {
		items = append(items, fmt.Sprintf("k%03d", i))
	}
	initial := append([]string(nil), items...)

	insertAt := 1
	var walked []string
	pg := Page{Limit: 3}
	for {
		p, err := Paginate(items, ident, pg)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, p.Items.([]string)...)
		if p.NextCursor == "" {
			break
		}
		pg.Cursor = p.NextCursor
		// Between pages, a new odd key lands in sorted position.
		key := fmt.Sprintf("k%03d", insertAt)
		insertAt += 2
		at := sort.SearchStrings(items, key)
		items = append(items[:at], append([]string{key}, items[at:]...)...)
	}

	seen := map[string]int{}
	for i, k := range walked {
		seen[k]++
		if i > 0 && walked[i] <= walked[i-1] {
			t.Fatalf("walk not strictly increasing at %d: %q after %q", i, walked[i], walked[i-1])
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %q delivered %d times", k, n)
		}
	}
	for _, k := range initial {
		if seen[k] == 0 {
			t.Errorf("key %q existed before the walk started but was never delivered", k)
		}
	}
}

// TestParseFiltersRejectsNaN pins a fuzz-found filter bypass: ParseFloat
// accepts "NaN", and a NaN threshold fails every comparison in Store.List,
// so minShortLived=NaN silently returned the entire unfiltered listing to a
// client who asked for churn-heavy subscriptions only.
func TestParseFiltersRejectsNaN(t *testing.T) {
	for _, query := range []string{"minAgnostic=NaN", "minShortLived=nan", "minShortLived=-NAN"} {
		r := httptest.NewRequest(http.MethodGet, "/api/v1/profiles?"+query, nil)
		if _, _, err := ParseListParams(r); err == nil {
			t.Errorf("ParseListParams accepted %q", query)
		}
	}
	// Infinities stay legal: they order cleanly against every score.
	r := httptest.NewRequest(http.MethodGet, "/api/v1/profiles?minShortLived=0.5&minAgnostic=-0.25", nil)
	if _, _, err := ParseListParams(r); err != nil {
		t.Errorf("ParseListParams rejected ordinary thresholds: %v", err)
	}
}
