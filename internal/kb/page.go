package kb

import (
	"encoding/base64"
	"errors"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloudlens/internal/core"
)

// Cursor pagination for the profile listings, shared by the batch and
// live routes. The scheme is keyset-based: profiles are always listed in
// subscription order, and a cursor names the last subscription already
// delivered, so the next page is "everything after that key". Unlike
// offset pagination, a keyset walk stays duplicate-free while the
// knowledge base fills in underneath it — profiles inserted behind the
// cursor are simply outside the remaining window, and profiles inserted
// ahead of it appear exactly once.
//
// Requests without limit or cursor keep the original unpaginated shape (a
// bare JSON array); any paging parameter switches the response to the
// ListPage envelope.

const (
	// DefaultPageLimit is the page size when a cursor is supplied without
	// an explicit limit.
	DefaultPageLimit = 100
	// MaxPageLimit bounds the page size a client may request.
	MaxPageLimit = 1000
)

// cursorPrefix versions the cursor wire format; bump it if the key scheme
// ever changes so stale cursors fail loudly instead of misbehaving.
const cursorPrefix = "p1:"

// Page is a parsed paging request. The zero value means "unpaginated".
type Page struct {
	// Limit is the maximum number of items per page (0 = unpaginated
	// request).
	Limit int
	// Cursor is the opaque position token from a previous page's
	// next_cursor, empty for the first page.
	Cursor string
}

// Enabled reports whether the client asked for the paginated envelope.
func (p Page) Enabled() bool { return p.Limit > 0 || p.Cursor != "" }

// ListPage is the paginated response envelope. Total counts every item
// matching the filter at the time of this page's request — it may drift
// between pages of a live knowledge base.
type ListPage struct {
	Items      any    `json:"items"`
	NextCursor string `json:"next_cursor,omitempty"`
	Total      int    `json:"total"`
}

// EncodeCursor seals a position key into the opaque wire token.
func EncodeCursor(key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + key))
}

// DecodeCursor opens a wire token back into its position key.
func DecodeCursor(cursor string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil || !strings.HasPrefix(string(raw), cursorPrefix) {
		return "", &ParamError{Code: "bad_cursor", Message: "invalid cursor: not issued by this API"}
	}
	return string(raw[len(cursorPrefix):]), nil
}

// Paginate slices one page out of items, which must already be sorted by
// key ascending (both Store.List and the live profile listing guarantee
// that order). It returns the page envelope; the error is a bad_cursor
// ParamError when the cursor does not decode.
func Paginate[T any](items []T, key func(T) string, pg Page) (ListPage, error) {
	after := ""
	if pg.Cursor != "" {
		k, err := DecodeCursor(pg.Cursor)
		if err != nil {
			return ListPage{}, err
		}
		after = k
	}
	limit := pg.Limit
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	start := sort.Search(len(items), func(i int) bool { return key(items[i]) > after })
	end := start + limit
	if end > len(items) {
		end = len(items)
	}
	page := ListPage{Items: items[start:end], Total: len(items)}
	if page.Items == nil || start == end {
		page.Items = []T{} // encode as [], never null
	}
	if end < len(items) {
		page.NextCursor = EncodeCursor(key(items[end-1]))
	}
	return page, nil
}

// ProfileSet is what the profile routes serve from: profiles in
// subscription order and their canonical encodings (AppendProfileJSON, or
// a body that extends it). *Snapshot encodes each body on demand; the live
// read path serves bodies it encoded once per snapshot.
type ProfileSet interface {
	Len() int
	At(i int) *Profile
	Index(id core.SubscriptionID) (int, bool)
	AppendBody(dst []byte, i int) []byte
}

// bodyPool recycles response buffers, so a listing allocates nothing that
// grows with the profile count.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteProfileList answers a profile listing from set under sn's
// validators: the bare array of matching bodies, or with paging the
// ListPage envelope. It makes one pass over set, copying nothing, and
// writes exactly the bytes encoding/json writes for Snapshot.List's result
// or Paginate's page of it. A cursor that does not decode is a bad_cursor
// 400, checked before the validators.
func WriteProfileList(w http.ResponseWriter, r *http.Request, sn *Snapshot, set ProfileSet, q Query, pg Page) {
	after := ""
	if pg.Cursor != "" {
		k, err := DecodeCursor(pg.Cursor)
		if err != nil {
			WriteParamError(w, err)
			return
		}
		after = k
	}
	if checkConditional(w, r, sn.ETag(), sn.PublishedAt()) {
		return
	}
	bp := bodyPool.Get().(*[]byte)
	*bp = appendProfileList((*bp)[:0], set, q, pg, after)
	writeBody(w, *bp)
	bodyPool.Put(bp)
}

// appendProfileList renders the listing: every match, or with paging the
// first limit matches keyed after the cursor, with next_cursor naming the
// last of them when more matches follow and total counting every match.
func appendProfileList(dst []byte, set ProfileSet, q Query, pg Page, after string) []byte {
	paged := pg.Enabled()
	limit := pg.Limit
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	if paged {
		dst = append(dst, `{"items":`...)
	}
	dst = append(dst, '[')
	total, taken, last, more := 0, 0, 0, false
	for i := 0; i < set.Len(); i++ {
		p := set.At(i)
		if !q.Match(p) {
			continue
		}
		total++
		switch {
		case paged && taken == limit:
			more = true
		case !paged || string(p.Subscription) > after:
			if taken > 0 {
				dst = append(dst, ',')
			}
			dst = set.AppendBody(dst, i)
			taken++
			last = i
		}
	}
	if !paged {
		return append(dst, "]\n"...)
	}
	dst = append(dst, ']')
	if more {
		dst = append(dst, `,"next_cursor":`...)
		dst = appendJSONString(dst, EncodeCursor(string(set.At(last).Subscription)))
	}
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	return append(dst, "}\n"...)
}

// WriteProfile answers one subscription's profile from set under sn's
// validators, or the not_found envelope.
func WriteProfile(w http.ResponseWriter, r *http.Request, sn *Snapshot, set ProfileSet, id core.SubscriptionID) {
	i, ok := set.Index(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "not_found", "profile not found")
		return
	}
	if checkConditional(w, r, sn.ETag(), sn.PublishedAt()) {
		return
	}
	bp := bodyPool.Get().(*[]byte)
	*bp = append(set.AppendBody((*bp)[:0], i), '\n')
	writeBody(w, *bp)
	bodyPool.Put(bp)
}

// writeBody writes a complete 200 body. The explicit Content-Length spares
// a listing larger than net/http's buffer the chunked framing, whose
// terminating chunk is a write of its own the client must wait for.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// ParamError is a 400-class query-string rejection with a stable machine
// code: unknown_param (a parameter the route does not define), bad_param
// (a defined parameter with an unusable value), or bad_cursor (a paging
// token this API did not issue).
type ParamError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *ParamError) Error() string { return e.Message }

// WriteParamError writes err as the uniform 400 envelope, preserving a
// ParamError's machine code.
func WriteParamError(w http.ResponseWriter, err error) {
	var pe *ParamError
	if errors.As(err, &pe) {
		WriteError(w, http.StatusBadRequest, pe.Code, pe.Message)
		return
	}
	WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// listParamNames is the complete filter+paging grammar of the profile
// listing routes; anything else is rejected with unknown_param so typos
// fail loudly instead of silently returning the unfiltered set.
var listParamNames = []string{"cloud", "minAgnostic", "pattern", "minShortLived", "limit", "cursor"}

// ParseListParams parses the unified profile-listing grammar — the filter
// parameters of ParseQuery plus limit and cursor — strictly: unknown
// parameters are rejected. Both /api/v1/profiles and /api/v1/live/profiles
// speak exactly this grammar.
func ParseListParams(r *http.Request) (Query, Page, error) {
	vals := r.URL.Query()
	for name := range vals {
		if !paramAllowed(name) {
			return Query{}, Page{}, &ParamError{
				Code:    "unknown_param",
				Message: "unknown query parameter: " + name + " (known: " + strings.Join(listParamNames, ", ") + ")",
			}
		}
	}
	q, err := parseFilters(vals)
	if err != nil {
		return Query{}, Page{}, err
	}
	var pg Page
	if s := vals.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > MaxPageLimit {
			return Query{}, Page{}, &ParamError{
				Code:    "bad_param",
				Message: "invalid query parameter: limit (want an integer in [1, " + strconv.Itoa(MaxPageLimit) + "])",
			}
		}
		pg.Limit = n
	}
	pg.Cursor = vals.Get("cursor")
	return q, pg, nil
}

func paramAllowed(name string) bool {
	for _, p := range listParamNames {
		if p == name {
			return true
		}
	}
	return false
}

// parseFilters translates the filter subset (cloud, minAgnostic, pattern,
// minShortLived) into a store query.
func parseFilters(vals url.Values) (Query, error) {
	q := Query{MinRegionAgnosticScore: disabledScore}
	switch vals.Get("cloud") {
	case "":
	case "private":
		q.Cloud = core.Private
	case "public":
		q.Cloud = core.Public
	default:
		return q, errBadParam("cloud")
	}
	if s := vals.Get("minAgnostic"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		// ParseFloat accepts "NaN", which fails every threshold comparison
		// in Store.List and silently returns the unfiltered set.
		if err != nil || math.IsNaN(v) {
			return q, errBadParam("minAgnostic")
		}
		q.MinRegionAgnosticScore = v
	}
	if s := vals.Get("minShortLived"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(v) {
			return q, errBadParam("minShortLived")
		}
		q.MinShortLivedShare = v
	}
	if s := vals.Get("pattern"); s != "" {
		found := false
		for _, p := range core.AllPatterns() {
			if p.String() == s {
				q.Pattern = p
				found = true
				break
			}
		}
		if !found {
			return q, errBadParam("pattern")
		}
	}
	return q, nil
}
