package policy

import (
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"cloudlens/internal/kb"
)

// ServeDecide is POST /api/v1/policy/decide: it evaluates one request
// body and answers the decision appended to the ledger.
func (e *Engine) ServeDecide(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		kb.WriteError(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error())
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		kb.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	d, err := e.Decide(req)
	if err != nil {
		var unknown ErrUnknownPolicy
		if errors.As(err, &unknown) {
			kb.WriteError(w, http.StatusBadRequest, "unknown_policy", err.Error())
			return
		}
		kb.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	kb.WriteJSON(w, http.StatusOK, d)
}

// ServeDecisions is GET /api/v1/policy/decisions: the ledger in id order,
// as a bare array or, with limit or cursor, the shared paging envelope.
func (e *Engine) ServeDecisions(w http.ResponseWriter, r *http.Request) {
	filter, pg, err := parseDecisionParams(r)
	if err != nil {
		kb.WriteParamError(w, err)
		return
	}
	items := e.Ledger().List(filter)
	if !pg.Enabled() {
		kb.WriteJSON(w, http.StatusOK, items)
		return
	}
	page, err := kb.Paginate(items, Decision.Key, pg)
	if err != nil {
		kb.WriteParamError(w, err)
		return
	}
	kb.WriteJSON(w, http.StatusOK, page)
}

// ServeCounterfactual is GET /api/v1/policy/decisions/{id}/counterfactual:
// the regret replay of one ledger entry.
func (e *Engine) ServeCounterfactual(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		kb.WriteError(w, http.StatusBadRequest, "bad_param",
			"invalid decision id: want an unsigned integer")
		return
	}
	cf, err := e.Counterfactual(id)
	if err != nil {
		kb.WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	kb.WriteJSON(w, http.StatusOK, cf)
}

// decisionParamNames is the strict allow-list for GET
// /api/v1/policy/decisions, in the spirit of kb.ParseListParams: unknown
// parameters 400 instead of being silently ignored.
var decisionParamNames = map[string]bool{"policy": true, "limit": true, "cursor": true}

func parseDecisionParams(r *http.Request) (policyFilter string, pg kb.Page, err error) {
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return "", kb.Page{}, &kb.ParamError{Code: "bad_param", Message: "malformed query string"}
	}
	for name, vals := range q {
		if !decisionParamNames[name] {
			return "", kb.Page{}, &kb.ParamError{Code: "unknown_param",
				Message: "unknown query parameter: " + name}
		}
		if len(vals) > 1 {
			return "", kb.Page{}, &kb.ParamError{Code: "bad_param",
				Message: "repeated query parameter: " + name}
		}
	}
	if v := q.Get("policy"); v != "" {
		if !isSpecName(v) || len(v) > maxPolicyNameLen {
			return "", kb.Page{}, &kb.ParamError{Code: "bad_param",
				Message: "invalid query parameter: policy (want a policy name)"}
		}
		policyFilter = v
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 1 || n > kb.MaxPageLimit {
			return "", kb.Page{}, &kb.ParamError{Code: "bad_param",
				Message: "invalid query parameter: limit (want an integer in [1, " +
					strconv.Itoa(kb.MaxPageLimit) + "])"}
		}
		pg.Limit = n
	}
	if v := q.Get("cursor"); v != "" {
		pg.Cursor = v
	}
	return policyFilter, pg, nil
}
