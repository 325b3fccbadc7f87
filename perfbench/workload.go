package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
)

// workload is one traffic mix: its generated inputs, how a fresh
// daemon is set up for it, and the request sequence of its one
// closed-loop client. One client, because the machine the benchmark
// is tuned on has two cores: a second client's requests, the daemon's
// and the garbage collector's would contend for them, and the latency
// tail would measure that contention and the host's other load.
type workload interface {
	// build generates the inputs from the seed and computes every
	// expected answer. It is not part of set-up time.
	build(seed int64, sc scale) error
	// setup takes an empty daemon to the first timed request.
	setup(p poster) error
	// sequence is the client's fixed request sequence.
	sequence() []*request
	// queries is the workload's query set; Qn is queries()[n-1].
	queries() []string
	// stack builds the in-process layer stack the traced run replays
	// requests through.
	stack() (*stack, error)
}

func workloadNames() []string {
	return []string{"table1", "table1-cold", "scan", "serving"}
}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "table1":
		return &table1{}, true
	case "table1-cold":
		return &table1{cold: true}, true
	case "scan":
		return &scan{}, true
	case "serving":
		return &serving{}, true
	}
	return nil, false
}

// poster sends a JSON request to a daemon: over HTTP, or in process.
type poster interface {
	post(path string, body []byte) (int, []byte, error)
}

func mustPost(p poster, path string, body []byte, want int) ([]byte, error) {
	status, data, err := p.post(path, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if status != want {
		return nil, fmt.Errorf("POST %s = %d, want %d: %s", path, status, want, data)
	}
	return data, nil
}

// inproc calls a daemon's handler directly, without a connection, and
// records how long each integration write took.
type inproc struct {
	h      http.Handler
	mu     sync.Mutex
	writes []time.Duration
}

func (p *inproc) post(path string, body []byte) (int, []byte, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	p.h.ServeHTTP(rec, req)
	if path == "/intersect" || path == "/refine" {
		p.mu.Lock()
		p.writes = append(p.writes, time.Since(start))
		p.mu.Unlock()
	}
	return rec.Code, rec.Body.Bytes(), nil
}

// checkQuery posts a query and checks its answer against want.
func checkQuery(p poster, body, want []byte) error {
	data, err := mustPost(p, "/query", body, http.StatusOK)
	if err != nil {
		return err
	}
	var qr queryResp
	if err := json.Unmarshal(data, &qr); err != nil {
		return err
	}
	if !bytes.Equal(qr.Value, want) {
		return fmt.Errorf("query %s answered %.200s, want %.200s", body, qr.Value, want)
	}
	return nil
}

func queryBody(session, q string, noCache bool) []byte {
	m := map[string]any{"query": q}
	if session != "" {
		m["session"] = session
	}
	if noCache {
		m["no_cache"] = true
	}
	return mustJSON(m)
}

// encodeValue renders a value exactly as the daemon's /query answer
// encodes it: bags sorted canonically, tuples and bags tagged, no HTML
// escaping.
func encodeValue(v iql.Value) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(jsonShape(v)); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

func jsonShape(v iql.Value) any {
	switch v.Kind {
	case iql.KindNull:
		return nil
	case iql.KindBool:
		return v.B
	case iql.KindInt:
		return v.I
	case iql.KindFloat:
		return v.F
	case iql.KindString:
		return v.S
	case iql.KindTuple:
		items := make([]any, len(v.Items))
		for i, it := range v.Items {
			items[i] = jsonShape(it)
		}
		return map[string]any{"tuple": items}
	case iql.KindBag:
		sorted, err := iql.SortBag(v)
		if err != nil {
			sorted = v
		}
		items := make([]any, len(sorted.Items))
		for i, it := range sorted.Items {
			items[i] = jsonShape(it)
		}
		return map[string]any{"bag": items}
	case iql.KindVoid:
		return map[string]any{"const": "Void"}
	case iql.KindAny:
		return map[string]any{"const": "Any"}
	}
	return v.String()
}

func mustEncode(v iql.Value) []byte {
	buf, err := encodeValue(v)
	if err != nil {
		panic(err)
	}
	return buf
}

// mappingJSON is a core mapping in the daemon's request shape.
func mappingJSON(m core.Mapping) map[string]any {
	fwd := make([]map[string]any, len(m.Forward))
	for i, f := range m.Forward {
		fwd[i] = map[string]any{"query": f.Query}
		if f.Source != "" {
			fwd[i]["source"] = f.Source
		}
	}
	out := map[string]any{"target": m.Target, "forward": fwd}
	if len(m.Reverse) > 0 {
		rev := make([]map[string]any, len(m.Reverse))
		for i, r := range m.Reverse {
			rev[i] = map[string]any{"source": r.Source, "object": r.Object, "query": r.Query}
		}
		out["reverse"] = rev
	}
	return out
}

// intersectOp and refineOp build an integration write in both forms.
func intersectOp(session, name string, enables []string, ms ...core.Mapping) writeOp {
	js := make([]map[string]any, len(ms))
	for i, m := range ms {
		js[i] = mappingJSON(m)
	}
	body := map[string]any{"name": name, "mappings": js}
	if session != "" {
		body["session"] = session
	}
	if len(enables) > 0 {
		body["enables"] = enables
	}
	return writeOp{path: "/intersect", body: mustJSON(body), name: name, enables: enables, mapping: ms}
}

func refineOp(session, name string, enables []string, m core.Mapping) writeOp {
	body := map[string]any{"name": name, "mapping": mappingJSON(m)}
	if session != "" {
		body["session"] = session
	}
	if len(enables) > 0 {
		body["enables"] = enables
	}
	return writeOp{path: "/refine", body: mustJSON(body), name: name, enables: enables, refine: true, mapping: []core.Mapping{m}}
}

// apply runs a write on a core integrator.
func (op writeOp) apply(ig *core.Integrator) error {
	if op.refine {
		return ig.Refine(op.name, op.mapping[0], op.enables...)
	}
	_, err := ig.Intersect(op.name, op.mapping, op.enables...)
	return err
}

// roundRobin is a sequence of passes over the n queries in order,
// starting at the seeded offset.
func roundRobin(n, passes int, seed int64, mk func(q int) *request) []*request {
	reqs := make([]*request, n)
	for q := range reqs {
		reqs[q] = mk(q)
	}
	seq := make([]*request, n*max(1, passes))
	off := int(uint64(seed) % uint64(n))
	for i := range seq {
		seq[i] = reqs[(off+i)%n]
	}
	return seq
}

func dsnFor(parts ...string) string { return "perfbench-" + strings.Join(parts, "-") }
