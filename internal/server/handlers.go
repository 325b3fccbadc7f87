package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/match"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/wrapper"
)

// ---- JSON plumbing ----

type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// ridKey carries the request ID through handler contexts.
type ridKeyType struct{}

var ridKey ridKeyType

func withRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey, rid)
}

// requestID returns the request's generated (or propagated) ID.
func requestID(r *http.Request) string {
	rid, _ := r.Context().Value(ridKey).(string)
	return rid
}

// respBufPool recycles response-encoding buffers across requests.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// scratchPool recycles the byte slices answers and /query responses are
// appended into.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before committing the status so an unencodable value
	// becomes a 500, not a 200 with a truncated body.
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer respBufPool.Put(buf)
	if err := encodeJSON(buf, v); err != nil {
		if _, isErr := v.(apiError); !isErr {
			writeJSON(w, http.StatusInternalServerError,
				apiError{Error: encodeError{err}.Error()})
			return
		}
		http.Error(w, `{"error":"server: encoding response failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// encodeJSON writes v and a newline to buf without HTML escaping (IQL
// scheme references are written <<...>>).
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// writeBody commits the status and an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error(), RequestID: requestID(r)})
}

// admit gates one unit of work (a query or an integration step) through
// the admission controller, parking it in the per-session fair queue at
// capacity. On rejection it writes the whole response — 429 at the
// queue bound, 503 while draining or when the caller's deadline expired
// in the queue, both with a Retry-After estimate — and returns ok
// false. On admission the returned release must be called when the work
// finishes. The wait (if any) is recorded as a queue span on the
// context's trace and in the automed_queue_wait_seconds histogram.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request, session string) (release func(), ok bool) {
	if session == "" {
		session = "default"
	}
	sp, _ := obs.StartSpan(ctx, obs.StageQueue, session)
	release, waited, err := s.adm.acquire(ctx, session)
	if err == nil {
		s.metrics.QueueAdmitted(waited)
		sp.End(nil)
		return release, true
	}
	sp.End(err)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	switch {
	case errors.Is(err, errOverCapacity):
		s.metrics.QueueRejected()
		writeErr(w, r, http.StatusTooManyRequests, err)
	case errors.Is(err, errDraining):
		s.metrics.QueueDrainRejected()
		writeErr(w, r, http.StatusServiceUnavailable, err)
	default:
		// The caller's context expired while parked in the queue.
		writeErr(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("server: request expired in the admission queue: %w", err))
	}
	return nil, false
}

// errStatus maps workflow errors onto HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.As(err, new(encodeError)):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "no session"):
		return http.StatusNotFound
	case strings.Contains(msg, "already"):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: invalid request body: %w", err)
	}
	return nil
}

// ---- POST /sources ----

type fkSpec struct {
	Column   string `json:"column"`
	RefTable string `json:"ref_table"`
}

type tableSpec struct {
	Name string `json:"name"`
	// Columns are "name:type" specs (type one of string, int, float,
	// bool, default string); the first column is the primary key
	// unless one carries a "!pk" suffix.
	Columns     []string `json:"columns"`
	Rows        [][]any  `json:"rows"`
	ForeignKeys []fkSpec `json:"foreign_keys,omitempty"`
}

// sqlSpec registers a live SQL backend reached through database/sql;
// the daemon binary must have the named driver compiled in.
type sqlSpec struct {
	Driver string `json:"driver"`
	DSN    string `json:"dsn"`
	// Dialect selects introspection: "sqlite" (default) or
	// "information_schema".
	Dialect string `json:"dialect,omitempty"`
	// TimeoutMs bounds each introspection query and extent fetch.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

type restCollectionSpec struct {
	Name   string   `json:"name"`
	Key    string   `json:"key,omitempty"`
	Path   string   `json:"path,omitempty"`
	Fields []string `json:"fields,omitempty"`
}

// restSpec registers a JSON/REST endpoint; collections are discovered
// from the endpoint root when none are declared.
type restSpec struct {
	Endpoint    string               `json:"endpoint"`
	Collections []restCollectionSpec `json:"collections,omitempty"`
	// TimeoutMs bounds each fetch; MaxBytes bounds each response body.
	TimeoutMs int   `json:"timeout_ms,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
}

// faultSpec registers a fault-injection wrapper around an inline
// relational source: the tables behave like an ordinary Tables source
// until the fault configuration makes them misbehave. It exists for
// chaos drills and the chaos-smoke gate — a way to point the daemon's
// fault-tolerance machinery at a source that fails on demand.
type faultSpec struct {
	Tables []tableSpec         `json:"tables"`
	Config wrapper.FaultConfig `json:"config"`
}

type sourcesReq struct {
	Session string `json:"session,omitempty"`
	// Name is the data source schema name.
	Name string `json:"name"`
	// Exactly one of CSVDir, Tables, SQL, REST or Fault selects the
	// backend. CSVDir loads a directory of typed-header CSV files.
	CSVDir string      `json:"csv_dir,omitempty"`
	Tables []tableSpec `json:"tables,omitempty"`
	SQL    *sqlSpec    `json:"sql,omitempty"`
	REST   *restSpec   `json:"rest,omitempty"`
	Fault  *faultSpec  `json:"fault,omitempty"`
}

type sourcesResp struct {
	Session string   `json:"session"`
	Source  string   `json:"source"`
	Objects []string `json:"objects"`
	Sources []string `json:"sources"`
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	var req sourcesReq
	if err := decode(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if req.Name == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: source name is required"))
		return
	}
	variants := 0
	for _, set := range []bool{req.CSVDir != "", len(req.Tables) > 0, req.SQL != nil, req.REST != nil, req.Fault != nil} {
		if set {
			variants++
		}
	}
	if variants != 1 {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: provide exactly one of csv_dir, tables, sql, rest or fault"))
		return
	}
	release, ok := s.admit(r.Context(), w, r, req.Session)
	if !ok {
		return
	}
	defer release()
	var (
		wrap wrapper.Wrapper
		err  error
	)
	// Remote-backend construction (SQL introspection, REST discovery)
	// runs under the request context: a client that disconnects — or a
	// dead endpoint — no longer pins the handler for the full wrapper
	// timeout.
	switch {
	case req.CSVDir != "":
		wrap, err = wrapper.NewCSVDir(req.Name, req.CSVDir)
	case req.SQL != nil:
		wrap, err = wrapper.NewSQLContext(r.Context(), req.Name, wrapper.SQLConfig{
			Driver:        req.SQL.Driver,
			DSN:           req.SQL.DSN,
			Dialect:       req.SQL.Dialect,
			Timeout:       time.Duration(req.SQL.TimeoutMs) * time.Millisecond,
			FetchPageRows: s.cfg.FetchPageRows,
		})
	case req.REST != nil:
		cfg := wrapper.RESTConfig{
			Endpoint: req.REST.Endpoint,
			Timeout:  time.Duration(req.REST.TimeoutMs) * time.Millisecond,
			MaxBytes: req.REST.MaxBytes,
		}
		for _, c := range req.REST.Collections {
			cfg.Collections = append(cfg.Collections, wrapper.RESTCollection{
				Name: c.Name, Key: c.Key, Path: c.Path, Fields: c.Fields,
			})
		}
		wrap, err = wrapper.NewRESTContext(r.Context(), req.Name, cfg)
	case req.Fault != nil:
		var inner wrapper.Wrapper
		inner, err = buildInlineSource(req.Name, req.Fault.Tables)
		if err == nil {
			wrap, err = wrapper.NewFault(inner, req.Fault.Config)
		}
	default:
		wrap, err = buildInlineSource(req.Name, req.Tables)
	}
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess, err := s.reg.Get(req.Session, true)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	if err := sess.AddSource(wrap); err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	s.persist(sess)
	writeJSON(w, http.StatusCreated, sourcesResp{
		Session: sess.Name(),
		Source:  req.Name,
		Objects: schemeStrings(wrap.Schema()),
		Sources: sess.SourceNames(),
	})
}

// buildInlineSource assembles a relational source from inline table
// specs, mirroring the library's SourceBuilder conventions.
func buildInlineSource(name string, tables []tableSpec) (wrapper.Wrapper, error) {
	db := rel.NewDB(name)
	for _, ts := range tables {
		if ts.Name == "" {
			return nil, fmt.Errorf("server: source %q: table name is required", name)
		}
		cols := make([]rel.Column, len(ts.Columns))
		types := make([]rel.Type, len(ts.Columns))
		pk := ""
		for i, spec := range ts.Columns {
			isPK := strings.HasSuffix(spec, "!pk")
			spec = strings.TrimSuffix(spec, "!pk")
			cname, ctype := spec, "string"
			if j := strings.LastIndex(spec, ":"); j >= 0 {
				cname, ctype = spec[:j], spec[j+1:]
			}
			ty, err := rel.ParseType(ctype)
			if err != nil {
				return nil, fmt.Errorf("server: source %q table %q: %w", name, ts.Name, err)
			}
			cols[i] = rel.Column{Name: cname, Type: ty}
			types[i] = ty
			if isPK {
				pk = cname
			}
		}
		t, err := db.CreateTable(ts.Name, cols, pk)
		if err != nil {
			return nil, fmt.Errorf("server: source %q: %w", name, err)
		}
		for rn, row := range ts.Rows {
			if len(row) != len(cols) {
				return nil, fmt.Errorf("server: source %q table %q row %d: %d cells for %d columns",
					name, ts.Name, rn, len(row), len(cols))
			}
			vals := make([]any, len(row))
			for i, cell := range row {
				v, err := coerceCell(cell, types[i])
				if err != nil {
					return nil, fmt.Errorf("server: source %q table %q row %d column %q: %w",
						name, ts.Name, rn, cols[i].Name, err)
				}
				vals[i] = v
			}
			if err := t.Insert(vals...); err != nil {
				return nil, fmt.Errorf("server: source %q table %q row %d: %w", name, ts.Name, rn, err)
			}
		}
		for _, fk := range ts.ForeignKeys {
			if err := db.AddForeignKey(ts.Name, fk.Column, fk.RefTable); err != nil {
				return nil, fmt.Errorf("server: source %q: %w", name, err)
			}
		}
	}
	return wrapper.NewRelational(name, db)
}

// coerceCell maps JSON-decoded cells onto the relational cell types
// (JSON numbers arrive as float64; int columns require integral ones).
func coerceCell(cell any, ty rel.Type) (any, error) {
	if cell == nil {
		return nil, nil
	}
	switch ty {
	case rel.Int:
		f, ok := cell.(float64)
		if !ok {
			return nil, fmt.Errorf("expected number, got %T", cell)
		}
		if f != math.Trunc(f) {
			return nil, fmt.Errorf("expected integer, got %v", f)
		}
		return int64(f), nil
	case rel.Float:
		f, ok := cell.(float64)
		if !ok {
			return nil, fmt.Errorf("expected number, got %T", cell)
		}
		return f, nil
	case rel.Bool:
		b, ok := cell.(bool)
		if !ok {
			return nil, fmt.Errorf("expected boolean, got %T", cell)
		}
		return b, nil
	default:
		s, ok := cell.(string)
		if !ok {
			return nil, fmt.Errorf("expected string, got %T", cell)
		}
		return s, nil
	}
}

func schemeStrings(s *hdm.Schema) []string {
	objs := s.Objects()
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Scheme.String()
	}
	return out
}

// ---- POST /federate ----

type federateReq struct {
	Session  string `json:"session,omitempty"`
	Name     string `json:"name,omitempty"`
	AutoDrop bool   `json:"auto_drop,omitempty"`
}

type federateResp struct {
	Session string   `json:"session"`
	Schema  string   `json:"schema"`
	Version int      `json:"version"`
	Objects []string `json:"objects"`
	// Skipped lists sources federation proceeded without (degraded
	// federation: unreachable at probe time, backfilled later).
	Skipped []string `json:"skipped_sources,omitempty"`
}

func (s *Server) handleFederate(w http.ResponseWriter, r *http.Request) {
	var req federateReq
	if err := decode(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess, err := s.reg.Get(req.Session, false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	release, ok := s.admit(r.Context(), w, r, sess.Name())
	if !ok {
		return
	}
	defer release()
	ig, err := sess.Federate(r.Context(), req.Name, req.AutoDrop)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	s.metrics.Iteration()
	s.persist(sess)
	fed := ig.Federated()
	writeJSON(w, http.StatusCreated, federateResp{
		Session: sess.Name(),
		Schema:  fed.Name(),
		Version: ig.GlobalVersion(),
		Objects: schemeStrings(fed),
		Skipped: ig.Skipped(),
	})
}

// ---- POST /intersect and POST /refine ----

type forwardSpec struct {
	// Source names the contributing extensional schema; empty marks a
	// derived concept over already-integrated objects.
	Source string `json:"source,omitempty"`
	Query  string `json:"query"`
}

type reverseSpec struct {
	Source string `json:"source"`
	Object string `json:"object"`
	Query  string `json:"query"`
}

type mappingSpec struct {
	Target  string        `json:"target"`
	Forward []forwardSpec `json:"forward"`
	Reverse []reverseSpec `json:"reverse,omitempty"`
}

func (m mappingSpec) toCore() core.Mapping {
	out := core.Mapping{Target: m.Target}
	for _, f := range m.Forward {
		out.Forward = append(out.Forward, core.SourceQuery{Source: f.Source, Query: f.Query})
	}
	for _, r := range m.Reverse {
		out.Reverse = append(out.Reverse, core.ReverseQuery{Source: r.Source, Object: r.Object, Query: r.Query})
	}
	return out
}

type intersectReq struct {
	Session  string        `json:"session,omitempty"`
	Name     string        `json:"name,omitempty"`
	Mappings []mappingSpec `json:"mappings"`
	Enables  []string      `json:"enables,omitempty"`
}

type countsResp struct {
	Manual int `json:"manual"`
	Auto   int `json:"auto"`
}

type intersectResp struct {
	Session      string     `json:"session"`
	Intersection string     `json:"intersection"`
	Sources      []string   `json:"sources"`
	Targets      []string   `json:"targets"`
	Counts       countsResp `json:"counts"`
	GlobalSchema string     `json:"global_schema"`
	Version      int        `json:"version"`
}

func (s *Server) handleIntersect(w http.ResponseWriter, r *http.Request) {
	var req intersectReq
	if err := decode(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess, err := s.reg.Get(req.Session, false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	release, ok := s.admit(r.Context(), w, r, sess.Name())
	if !ok {
		return
	}
	defer release()
	mappings := make([]core.Mapping, len(req.Mappings))
	for i, m := range req.Mappings {
		mappings[i] = m.toCore()
	}
	in, err := sess.Intersect(req.Name, mappings, req.Enables...)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	s.metrics.Iteration()
	s.persist(sess)
	ig, _ := sess.integrator()
	targets := make([]string, len(in.Targets))
	for i, t := range in.Targets {
		targets[i] = t.String()
	}
	writeJSON(w, http.StatusCreated, intersectResp{
		Session:      sess.Name(),
		Intersection: in.Name,
		Sources:      in.Sources,
		Targets:      targets,
		Counts:       countsResp{Manual: in.Counts.Manual(), Auto: in.Counts.Auto()},
		GlobalSchema: ig.Global().Name(),
		Version:      ig.GlobalVersion(),
	})
}

type refineReq struct {
	Session string      `json:"session,omitempty"`
	Name    string      `json:"name"`
	Mapping mappingSpec `json:"mapping"`
	Enables []string    `json:"enables,omitempty"`
}

type refineResp struct {
	Session      string `json:"session"`
	Refinement   string `json:"refinement"`
	GlobalSchema string `json:"global_schema"`
	Version      int    `json:"version"`
}

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	var req refineReq
	if err := decode(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess, err := s.reg.Get(req.Session, false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	release, ok := s.admit(r.Context(), w, r, sess.Name())
	if !ok {
		return
	}
	defer release()
	if err := sess.Refine(req.Name, req.Mapping.toCore(), req.Enables...); err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	s.metrics.Iteration()
	s.persist(sess)
	ig, _ := sess.integrator()
	writeJSON(w, http.StatusCreated, refineResp{
		Session:      sess.Name(),
		Refinement:   req.Name,
		GlobalSchema: ig.Global().Name(),
		Version:      ig.GlobalVersion(),
	})
}

// ---- GET /schemas ----

type schemaVersionResp struct {
	Version int      `json:"version"`
	Name    string   `json:"name"`
	Objects []string `json:"objects"`
}

type schemasResp struct {
	Session        string              `json:"session"`
	Sources        []string            `json:"sources"`
	CurrentVersion int                 `json:"current_version"`
	Versions       []schemaVersionResp `json:"versions"`
}

func (s *Server) handleSchemas(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.Get(r.URL.Query().Get("session"), false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	resp := schemasResp{
		Session:        sess.Name(),
		Sources:        sess.SourceNames(),
		CurrentVersion: -1,
	}
	if ig, err := sess.integrator(); err == nil {
		resp.CurrentVersion = ig.GlobalVersion()
		for _, sv := range ig.Versions() {
			resp.Versions = append(resp.Versions, schemaVersionResp{
				Version: sv.Version,
				Name:    sv.Schema.Name(),
				Objects: schemeStrings(sv.Schema),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- POST /query ----

type queryReq struct {
	Session string `json:"session,omitempty"`
	Query   string `json:"query"`
	// Version pins the query to a published global schema version;
	// omitted or null means the latest.
	Version *int `json:"version,omitempty"`
	// Explain adds the derivation tree of every referenced object.
	Explain bool `json:"explain,omitempty"`
	// NoCache bypasses the result cache (the plan cache still
	// applies).
	NoCache bool `json:"no_cache,omitempty"`
	// TimeoutMs shortens the server's query deadline for this request.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// RequireFresh rejects degraded answers (ones evaluated over stale
	// fallback extents) with 503 instead of returning them with a
	// warning. The X-Require-Fresh: 1 header is equivalent.
	RequireFresh bool `json:"require_fresh,omitempty"`
}

// queryResp is a /query answer. It is encoded by appendJSON, field by
// field in the order below, so the cached JSON of the value is spliced
// in without being parsed again; "warnings", "degraded", "explain" and
// "trace" are omitted when empty.
type queryResp struct {
	Session string
	// Value is the answer's canonical JSON (Answer.JSONValue).
	Value        []byte
	Rendered     string
	Warnings     []string
	Version      int
	Schema       string
	PlanCached   bool
	ResultCached bool
	// Degraded marks an answer evaluated over stale fallback extents
	// because one or more sources were unreachable; the matching
	// warnings name the sources.
	Degraded  bool
	ElapsedUs int64
	Explain   map[string]string
	// Trace is the per-stage span tree, present when the request set
	// the X-Automed-Trace: 1 header.
	Trace *obs.TraceJSON
}

// appendJSON appends the response as one JSON object and a newline.
func (q *queryResp) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"session":`...)
	b = iql.AppendJSONString(b, q.Session)
	b = append(b, `,"value":`...)
	b = append(b, q.Value...)
	b = append(b, `,"rendered":`...)
	b = iql.AppendJSONString(b, q.Rendered)
	if len(q.Warnings) > 0 {
		b = append(b, `,"warnings":[`...)
		for i, w := range q.Warnings {
			if i > 0 {
				b = append(b, ',')
			}
			b = iql.AppendJSONString(b, w)
		}
		b = append(b, ']')
	}
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, int64(q.Version), 10)
	b = append(b, `,"schema":`...)
	b = iql.AppendJSONString(b, q.Schema)
	b = append(b, `,"plan_cached":`...)
	b = strconv.AppendBool(b, q.PlanCached)
	b = append(b, `,"result_cached":`...)
	b = strconv.AppendBool(b, q.ResultCached)
	if q.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, q.ElapsedUs, 10)
	if len(q.Explain) > 0 {
		b = append(b, `,"explain":{`...)
		for i, k := range slices.Sorted(maps.Keys(q.Explain)) {
			if i > 0 {
				b = append(b, ',')
			}
			b = iql.AppendJSONString(b, k)
			b = append(b, ':')
			b = iql.AppendJSONString(b, q.Explain[k])
		}
		b = append(b, '}')
	}
	if q.Trace != nil {
		var buf bytes.Buffer
		if err := encodeJSON(&buf, q.Trace); err != nil {
			return b, err
		}
		b = append(b, `,"trace":`...)
		b = append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
	}
	return append(b, "}\n"...), nil
}

// traceRequested reports whether the client asked for an inline trace.
func traceRequested(r *http.Request) bool {
	return r.Header.Get("X-Automed-Trace") == "1"
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryReq
	if err := decode(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("server: query is required"))
		return
	}
	sess, err := s.reg.Get(req.Session, false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	version := core.CurrentVersion
	if req.Version != nil {
		version = *req.Version
	}

	ctx := r.Context()
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMs > 0 {
		rt := time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout == 0 || rt < timeout {
			timeout = rt
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Trace when the client asked for one, and when a slow-query
	// threshold is armed (every query is then traced; only those at or
	// above the threshold are retained in the /debug/traces ring).
	wantTrace := traceRequested(r)
	var tr *obs.Trace
	if wantTrace || s.cfg.SlowQuery > 0 {
		tr = obs.NewTrace(requestID(r), sess.Name(), req.Query)
		ctx = obs.WithTrace(ctx, tr)
	}

	// Admission control: the evaluation below runs only once the fair
	// queue grants a slot. The wait counts against the query deadline
	// (ctx carries it) but not against the query latency histogram —
	// queue time has its own. Rejections (429/503 + Retry-After) have
	// already been written when ok is false.
	release, ok := s.admit(ctx, w, r, sess.Name())
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	res, outcome, err := sess.Query(ctx, s.plans, req.Query, version, req.NoCache)
	elapsed := time.Since(start)
	s.metrics.Query(elapsed, err, errors.Is(err, context.DeadlineExceeded))

	var tj *obs.TraceJSON
	if tr != nil {
		t := tr.Finish(elapsed)
		tj = &t
		if wantTrace || (s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery) {
			s.traces.Add(t)
		}
	}
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}

	degraded := false
	for _, warn := range res.Warnings {
		if query.IsDegraded(warn) {
			degraded = true
			break
		}
	}
	if degraded {
		s.metrics.DegradedQuery()
		if req.RequireFresh || r.Header.Get("X-Require-Fresh") == "1" || s.cfg.RequireFresh {
			writeErr(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("server: answer is degraded and the request requires fresh data: %s",
					strings.Join(res.Warnings, "; ")))
			return
		}
	}

	resp := queryResp{
		Session:      sess.Name(),
		Value:        res.JSONValue,
		Rendered:     res.Rendered,
		Warnings:     res.Warnings,
		Version:      res.Version,
		Schema:       res.Schema,
		PlanCached:   outcome.PlanCached,
		ResultCached: outcome.ResultCached,
		Degraded:     degraded,
		ElapsedUs:    elapsed.Microseconds(),
	}
	if wantTrace {
		resp.Trace = tj
	}
	if req.Explain {
		resp.Explain = s.explain(sess, req.Query, res.Version)
	}
	buf := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(buf)
	body, err := resp.appendJSON((*buf)[:0])
	*buf = body
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, encodeError{err})
		return
	}
	writeBody(w, http.StatusOK, body)
}

// explain renders the derivation tree (provenance) of every schema
// object the query references, resolved against the answered version.
func (s *Server) explain(sess *Session, src string, version int) map[string]string {
	ig, err := sess.integrator()
	if err != nil {
		return nil
	}
	e, err := iql.Parse(src)
	if err != nil {
		return nil
	}
	schema, ok := ig.SchemaAt(version)
	if !ok {
		return nil
	}
	out := make(map[string]string)
	for _, parts := range iql.UniqueSchemeRefs(e) {
		obj, err := schema.Resolve(parts)
		if err != nil {
			continue
		}
		out[obj.Scheme.String()] = ig.Processor().Explain(obj.Scheme)
	}
	return out
}

// ---- GET /report ----

type iterationResp struct {
	Name             string   `json:"name"`
	Kind             string   `json:"kind"`
	Manual           int      `json:"manual"`
	Auto             int      `json:"auto"`
	CumulativeManual int      `json:"cumulative_manual"`
	Enables          []string `json:"enables,omitempty"`
	GlobalSchema     string   `json:"global_schema"`
}

type reportResp struct {
	Session     string          `json:"session"`
	Iterations  []iterationResp `json:"iterations"`
	TotalManual int             `json:"total_manual"`
	TotalAuto   int             `json:"total_auto"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.Get(r.URL.Query().Get("session"), false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	ig, err := sess.integrator()
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	rep := ig.Report()
	resp := reportResp{Session: sess.Name()}
	cum := 0
	for _, it := range rep.Iterations {
		cum += it.Counts.Manual()
		resp.Iterations = append(resp.Iterations, iterationResp{
			Name:             it.Name,
			Kind:             it.Kind,
			Manual:           it.Counts.Manual(),
			Auto:             it.Counts.Auto(),
			CumulativeManual: cum,
			Enables:          it.Enables,
			GlobalSchema:     it.GlobalSchema,
		})
	}
	t := rep.Totals()
	resp.TotalManual, resp.TotalAuto = t.Manual(), t.Auto()
	writeJSON(w, http.StatusOK, resp)
}

// ---- POST /suggest ----

type suggestReq struct {
	Session  string  `json:"session,omitempty"`
	SourceA  string  `json:"source_a"`
	SourceB  string  `json:"source_b"`
	MinScore float64 `json:"min_score,omitempty"`
}

type correspondenceResp struct {
	Left     string             `json:"left"`
	Right    string             `json:"right"`
	Score    float64            `json:"score"`
	Evidence map[string]float64 `json:"evidence,omitempty"`
}

type suggestResp struct {
	Session         string               `json:"session"`
	Correspondences []correspondenceResp `json:"correspondences"`
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req suggestReq
	if err := decode(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess, err := s.reg.Get(req.Session, false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	wa, okA := sess.Wrapper(req.SourceA)
	wb, okB := sess.Wrapper(req.SourceB)
	if !okA || !okB {
		writeErr(w, r, http.StatusNotFound,
			fmt.Errorf("server: session %q does not have both sources %q and %q", sess.Name(), req.SourceA, req.SourceB))
		return
	}
	release, ok := s.admit(r.Context(), w, r, sess.Name())
	if !ok {
		return
	}
	defer release()
	m := match.New(match.DefaultConfig())
	best := m.Best(wa.Schema(), wb.Schema(), wa, wb, req.MinScore)
	resp := suggestResp{Session: sess.Name(), Correspondences: []correspondenceResp{}}
	for _, c := range best {
		resp.Correspondences = append(resp.Correspondences, correspondenceResp{
			Left:     c.Left.String(),
			Right:    c.Right.String(),
			Score:    c.Score,
			Evidence: c.Evidence,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- GET /sessions, /healthz, /metrics ----

type sessionInfo struct {
	Name      string   `json:"name"`
	Sources   []string `json:"sources"`
	Federated bool     `json:"federated"`
	Version   int      `json:"version"`
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	out := make([]sessionInfo, 0)
	for _, name := range s.reg.Names() {
		sess, err := s.reg.Get(name, false)
		if err != nil {
			continue
		}
		info := sessionInfo{Name: name, Sources: sess.SourceNames(), Version: -1}
		if ig, err := sess.integrator(); err == nil {
			info.Federated = true
			info.Version = ig.GlobalVersion()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// ---- POST /sessions/{name}/snapshot and /sessions/{name}/restore ----

type snapshotResp struct {
	Session string `json:"session"`
	File    string `json:"file"`
	// Version is the session's current global schema version (-1
	// before federation).
	Version int `json:"version"`
}

// handleSnapshot forces a durable snapshot of one session, regardless
// of autosave. Useful after out-of-band mutations and as a consistency
// point before operational work on the data directory.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, err := s.SnapshotSession(r.PathValue("name"))
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errStoreClosed):
			status = http.StatusConflict
		case errStatus(err) == http.StatusNotFound:
			status = http.StatusNotFound
		}
		writeErr(w, r, status, err)
		return
	}
	version := -1
	if ig, err := sess.integrator(); err == nil {
		version = ig.GlobalVersion()
	}
	writeJSON(w, http.StatusOK, snapshotResp{
		Session: sess.Name(),
		File:    fileName(sess.Name()),
		Version: version,
	})
}

type restoreResp struct {
	Session   string   `json:"session"`
	Federated bool     `json:"federated"`
	Version   int      `json:"version"`
	Sources   []string `json:"sources"`
}

// handleRestore replaces one session's in-memory state with its latest
// on-disk snapshot. The session need not exist in memory — restore is
// how a snapshot taken by another process (or a pre-crash incarnation)
// is brought live without restarting the daemon.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	sess, err := s.restoreSession(r.PathValue("name"))
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errStoreClosed):
			status = http.StatusConflict
		case errors.Is(err, os.ErrNotExist):
			status = http.StatusNotFound
		case errors.Is(err, errBadSnapshot):
			status = http.StatusBadRequest
		}
		writeErr(w, r, status, err)
		return
	}
	resp := restoreResp{Session: sess.Name(), Version: -1, Sources: sess.SourceNames()}
	if ig, err := sess.integrator(); err == nil {
		resp.Federated = true
		resp.Version = ig.GlobalVersion()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleInvalidate drops one session's cached extents and answers, so
// the next queries re-fetch from the sources. This is the ops lever for
// fault drills and for forcing a freshness check: warm caches otherwise
// shield a downed source from queries indefinitely.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.Get(r.PathValue("name"), false)
	if err != nil {
		writeErr(w, r, errStatus(err), err)
		return
	}
	sess.InvalidateExtents()
	writeJSON(w, http.StatusOK, map[string]any{
		"session":     sess.Name(),
		"invalidated": true,
	})
}

// sessionHealth is one session's fault-tolerance state in /healthz.
type sessionHealth struct {
	Session string               `json:"session"`
	Sources []query.SourceHealth `json:"sources"`
	// Skipped lists federation-skipped sources awaiting backfill.
	Skipped []string `json:"skipped_sources,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// During drain the health check goes unready so load balancers pull
	// this instance out of rotation while in-flight work finishes.
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "draining",
			"sessions": s.reg.Len(),
		})
		return
	}
	// Health checks double as the recovery driver: each one may launch
	// a rate-limited background probe of open breakers and skipped
	// sources, so a monitored daemon heals without a dedicated timer.
	s.maybeProbe()
	status := "ok"
	var health []sessionHealth
	for _, name := range s.reg.Names() {
		sess, err := s.reg.Get(name, false)
		if err != nil {
			continue
		}
		hs := sess.SourceHealth()
		skipped := sess.Skipped()
		if len(hs) == 0 && len(skipped) == 0 {
			continue
		}
		for _, h := range hs {
			if h.State != "closed" {
				status = "degraded"
			}
		}
		if len(skipped) > 0 {
			status = "degraded"
		}
		health = append(health, sessionHealth{Session: name, Sources: hs, Skipped: skipped})
	}
	resp := map[string]any{
		"status":   status,
		"sessions": s.reg.Len(),
	}
	if health != nil {
		resp["source_health"] = health
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves Prometheus text exposition by default; the JSON
// snapshot remains available via ?format=json or an Accept header
// naming application/json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	memo, src := s.extentStats()
	health := s.sourceHealth()
	if wantsJSONMetrics(r) {
		writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.plans.Stats(), s.resultStats(), memo, src, s.QueueStats(), s.reg.Len(), s.evalStats(), health))
		return
	}
	body := s.metrics.Prometheus(s.plans.Stats(), s.resultStats(), memo, src, s.QueueStats(), s.reg.Len(), s.evalStats(), health)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func wantsJSONMetrics(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return strings.EqualFold(f, "json")
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// handleTraces serves the bounded ring of recent query traces (those
// explicitly requested via X-Automed-Trace plus slow queries when a
// threshold is armed), newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.Snapshot()})
}
