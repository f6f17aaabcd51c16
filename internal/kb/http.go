package kb

import (
	"encoding/json"
	"net/http"
)

// The response writers every v1 route shares, batch and live alike. The
// routes themselves are mounted, and listed, by internal/server.
//
// All responses are JSON. Errors use the envelope
//
//	{"error":{"code":"<machine code>","message":"<human text>"}}
//
// Listing routes answer a bare array by default and switch to the
// paginated ListPage envelope when limit or cursor is present (page.go).
// Unknown query parameters are rejected with code unknown_param.

// ErrorBody is the uniform JSON error envelope of every /api/v1 route.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code alongside the human
// message. Codes in use: bad_request, not_found, method_not_allowed.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// EncodeJSON marshals v exactly like WriteJSON's streaming encoder
// (trailing newline included), for payloads memoized as bytes: a
// pre-encoded body is byte-identical to the streamed form.
func EncodeJSON(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Mirror WriteJSON: encoding errors on these payload types cannot
		// happen; an empty body is the deterministic fallback.
		return []byte("\n")
	}
	return append(data, '\n')
}

func errBadParam(name string) error {
	return &ParamError{Code: "bad_param", Message: "invalid query parameter: " + name}
}

// WriteJSON writes a JSON success body. Shared by every v1 route, batch
// and live.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header write can only be logged; for this
	// read-only API the client sees a truncated body and retries.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the uniform error envelope.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}
