package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
)

// TestUnencodableAnswerFailsEveryTime pins the handling of an answer
// JSON cannot represent (+Inf): it is a 500 carrying the request ID,
// counted as a failed query, and never enters the result cache, so
// repeating the query fails the same way instead of serving a cached
// answer that cannot be written.
func TestUnencodableAnswerFailsEveryTime(t *testing.T) {
	s, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 1)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)

	for i := 0; i < 2; i++ {
		status, out := c.do("POST", "/query", map[string]any{"query": "[x * 10.0 | x <- [1e308]]"})
		if status != http.StatusInternalServerError {
			t.Fatalf("query %d: status %d, want 500 (body %v)", i, status, out)
		}
		msg, _ := out["error"].(string)
		if !strings.HasPrefix(msg, "server: encoding response: ") || !strings.Contains(msg, "+Inf") {
			t.Fatalf("query %d: error %q", i, msg)
		}
		if rid, _ := out["request_id"].(string); rid == "" {
			t.Fatalf("query %d: no request_id in %v", i, out)
		}
	}
	sess, err := s.reg.Get("", false)
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ResultCacheStats(); st.Hits != 0 || st.Len != 0 {
		t.Fatalf("result cache after two failing queries: %+v", st)
	}
	if n := c.must("GET", "/metrics", nil, http.StatusOK)["query_errors"]; n != float64(2) {
		t.Fatalf("query_errors = %v, want 2", n)
	}
}

// TestResultCostChargesRenderedBytes pins a cached answer's cost: the
// value's footprint, both renderings at their actual sizes, and the
// metadata overheads.
func TestResultCostChargesRenderedBytes(t *testing.T) {
	a := Answer{Result: core.Result{
		Value:    iql.Bag(iql.Int(1), iql.Str("ab")),
		Warnings: []string{"w"},
		Deps:     []string{"d1"},
		Schema:   "G",
	}}
	if err := a.render(); err != nil {
		t.Fatal(err)
	}
	if got := string(a.JSONValue); got != `{"bag":[1,"ab"]}` {
		t.Fatalf("JSONValue = %s", got)
	}
	if a.Rendered != "[1, 'ab']" {
		t.Fatalf("Rendered = %s", a.Rendered)
	}
	// Footprint 64+64+66, schema 1+64, JSON 16, text 9, warning 1+16,
	// dependency 2+16.
	if got, want := resultCost(a), int64(194+65+16+9+17+18); got != want {
		t.Fatalf("resultCost = %d, want %d", got, want)
	}
}

// refQueryResp is queryResp as it was encoded before the hand-written
// encoder: struct tags, the value as a parsed JSON tree, encoding/json
// with HTML escaping off.
type refQueryResp struct {
	Session      string            `json:"session"`
	Value        json.RawMessage   `json:"value"`
	Rendered     string            `json:"rendered"`
	Warnings     []string          `json:"warnings,omitempty"`
	Version      int               `json:"version"`
	Schema       string            `json:"schema"`
	PlanCached   bool              `json:"plan_cached"`
	ResultCached bool              `json:"result_cached"`
	Degraded     bool              `json:"degraded,omitempty"`
	ElapsedUs    int64             `json:"elapsed_us"`
	Explain      map[string]string `json:"explain,omitempty"`
	Trace        *obs.TraceJSON    `json:"trace,omitempty"`
}

func TestQueryRespMatchesEncodingJSON(t *testing.T) {
	trace := obs.NewTrace("rid-1", "s", "[x | x <- <<a & b>>]").Finish(3 * time.Millisecond)
	resps := []queryResp{
		{Session: "default", Value: []byte(`{"bag":[]}`), Rendered: "[]", Schema: "F"},
		{
			Session: "s <2>", Value: []byte(`{"bag":[{"tuple":["LIB",1]},1.5e-7]}`),
			Rendered: "[{'LIB', 1}, 1.5e-07]", Warnings: []string{"a \"b\"", "<<c>>\n"},
			Version: 3, Schema: "I1", PlanCached: true, ResultCached: true, Degraded: true,
			ElapsedUs: 1234, Explain: map[string]string{"<<b>>": "y", "<<a>>": "x\t"},
			Trace: &trace,
		},
		{Session: "x", Value: []byte(`7`), Rendered: "7", Warnings: []string{}, Explain: map[string]string{}},
	}
	for _, q := range resps {
		got, err := q.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := encodeJSON(&want, refQueryResp{
			Session: q.Session, Value: q.Value, Rendered: q.Rendered, Warnings: q.Warnings,
			Version: q.Version, Schema: q.Schema, PlanCached: q.PlanCached,
			ResultCached: q.ResultCached, Degraded: q.Degraded, ElapsedUs: q.ElapsedUs,
			Explain: q.Explain, Trace: q.Trace,
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendJSON\n got %s\nwant %s", got, want.Bytes())
		}
	}
}

// TestQueryResponseBytes checks a /query response end to end: the
// cached value bytes are spliced in unchanged and the body is one
// valid JSON object.
func TestQueryResponseBytes(t *testing.T) {
	_, c := newTestClient(t, DefaultConfig())
	registerBookstore(c, "", 2)
	c.must("POST", "/federate", map[string]any{"name": "F"}, http.StatusCreated)
	for i := 0; i < 2; i++ {
		resp, err := c.srv.Client().Post(c.srv.URL+"/query", "application/json",
			strings.NewReader(`{"query":"[{k, x} | {k, x} <- <<library_books, isbn>>]"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cached := strconv.FormatBool(i > 0)
		want := `{"session":"default","value":{"bag":[{"tuple":[0,"978-0"]},{"tuple":[1,"978-1"]}]},` +
			`"rendered":"[{0, '978-0'}, {1, '978-1'}]","version":0,"schema":"F",` +
			`"plan_cached":` + cached + `,"result_cached":` + cached + `,"elapsed_us":`
		if !strings.HasPrefix(string(body), want) || !json.Valid(body) {
			t.Fatalf("query %d answered %s, want prefix %s", i, body, want)
		}
	}
}
