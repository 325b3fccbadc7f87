// Package server exposes the pay-as-you-go intersection-schema
// workflow as a long-running dataspace service: data sources are
// registered over HTTP, federated for immediate querying, and
// incrementally integrated while concurrent clients keep querying any
// published global schema version.
//
// The serving layer adds what a library cannot: a session registry of
// live integrations, a bounded cache of parsed IQL plans, a per-session
// result cache keyed by (schema version, normalised query) whose
// entries are tagged with the dependency closure of their evaluation —
// an integration iteration evicts only the answers whose schemes it
// touched, keeping warm answers for untouched schemes live across
// schema versions — per-request timeouts via context cancellation, and
// metrics (query counts, latencies, per-cache-layer hit rates, bytes
// and evictions).
package server

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/query"
	"github.com/dataspace/automed/internal/wrapper"
)

// plan is a parsed, normalised IQL query; sharing one across
// evaluations is safe because evaluation never mutates the AST.
type plan struct {
	expr iql.Expr
	norm string // canonical rendering, the result-cache key component
}

// Session is one live integration: registered sources, then — once
// federated — an Integrator plus a result cache over its published
// schema versions. A session's mutating workflow steps serialise with
// its queries via mu; queries additionally hold the integrator's read
// lock for their whole evaluation.
type Session struct {
	name     string
	settings SessionSettings

	mu       sync.RWMutex
	wrappers []wrapper.Wrapper
	ig       *core.Integrator

	// results caches query answers keyed by (version, normalised
	// query); every entry is tagged with the dependency closure of its
	// evaluation (core.Result.Deps), so integration iterations evict
	// only the entries whose schemes they touched. Entries carry their
	// response renderings, so a hit skips re-rendering too.
	results *cache.Store[Answer]
}

// SessionSettings carries the per-session tuning knobs every new (or
// restored) session's query processor is configured with.
type SessionSettings struct {
	// ResultCapacity bounds the result cache's entry count (<= 0
	// disables the cache).
	ResultCapacity int
	// CacheBytes is the byte budget per cache layer (0 = unbounded).
	CacheBytes int64
	// MaxSteps bounds IQL evaluation steps per query (0 = unlimited).
	MaxSteps int
	// EvalParallelism is the sharded-evaluation worker count: 0 picks
	// GOMAXPROCS, 1 forces serial evaluation.
	EvalParallelism int
	// PrefetchWorkers and PrefetchMaxTasks tune the concurrent extent
	// prefetcher (0 = package defaults).
	PrefetchWorkers  int
	PrefetchMaxTasks int
	// ScanBuffer is the streaming extent pipeline's row window (0 =
	// package default, negative disables streaming).
	ScanBuffer int
	// Breaker configures the per-source circuit breakers and stale
	// fallback; the zero value disables the layer.
	Breaker query.BreakerConfig
	// MinFederatedSources, when > 0, makes Federate probe each source
	// and proceed with the reachable subset as long as at least this
	// many answer; skipped sources backfill later via Probe. 0 keeps
	// the strict all-sources federation.
	MinFederatedSources int
}

// applyTo configures a session's query processor from the settings.
func (cfg SessionSettings) applyTo(p *query.Processor) {
	p.MaxSteps = cfg.MaxSteps
	p.SetCacheBytes(cfg.CacheBytes)
	p.Parallel = cfg.EvalParallelism
	p.PrefetchWorkers = cfg.PrefetchWorkers
	p.PrefetchMaxTasks = cfg.PrefetchMaxTasks
	p.ScanBuffer = cfg.ScanBuffer
	p.SetBreaker(cfg.Breaker)
}

func newSession(name string, cfg SessionSettings) *Session {
	return &Session{
		name:     name,
		settings: cfg,
		results: cache.New[Answer](cache.Options{
			MaxEntries: cfg.ResultCapacity,
			MaxBytes:   cfg.CacheBytes,
			Disabled:   cfg.ResultCapacity <= 0,
		}),
	}
}

// Name returns the session name.
func (s *Session) Name() string { return s.name }

// Federated reports whether the session has built its federated schema
// (and is therefore queryable).
func (s *Session) Federated() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ig != nil
}

// Wrapper returns the registered source with the given schema name.
func (s *Session) Wrapper(name string) (wrapper.Wrapper, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, w := range s.wrappers {
		if w.SchemaName() == name {
			return w, true
		}
	}
	return nil, false
}

// SourceNames lists the registered sources in registration order.
func (s *Session) SourceNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.wrappers))
	for i, w := range s.wrappers {
		out[i] = w.SchemaName()
	}
	return out
}

// AddSource registers a wrapped data source. Sources must be registered
// before Federate.
func (s *Session) AddSource(w wrapper.Wrapper) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ig != nil {
		return fmt.Errorf("server: session %q is already federated; sources must be registered first", s.name)
	}
	for _, have := range s.wrappers {
		if have.SchemaName() == w.SchemaName() {
			return fmt.Errorf("server: session %q already has a source named %q", s.name, w.SchemaName())
		}
	}
	s.wrappers = append(s.wrappers, w)
	return nil
}

// Federate builds the integrator over the registered sources and
// publishes the federated schema (version 0). autoDrop elects
// redundant-object dropping for the global schemas rebuilt after each
// subsequent iteration. When the session's MinFederatedSources setting
// is > 0, sources are probed first and federation proceeds over the
// reachable subset (at least that many), recording the skipped sources
// for probe-driven backfill. The session is mutated only if federation
// succeeds.
func (s *Session) Federate(ctx context.Context, name string, autoDrop bool) (*core.Integrator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ig != nil {
		return nil, fmt.Errorf("server: session %q is already federated", s.name)
	}
	if len(s.wrappers) == 0 {
		return nil, fmt.Errorf("server: session %q has no registered sources", s.name)
	}
	ig, err := core.New(s.wrappers...)
	if err != nil {
		return nil, err
	}
	ig.SetAutoDrop(autoDrop)
	s.settings.applyTo(ig.Processor())
	if min := s.settings.MinFederatedSources; min > 0 {
		if _, _, err := ig.FederateReachable(ctx, name, min); err != nil {
			return nil, err
		}
	} else if _, err := ig.Federate(name); err != nil {
		return nil, err
	}
	// No result-cache purge: queries need a federated integrator, so
	// the cache is necessarily empty here.
	s.ig = ig
	return ig, nil
}

// Skipped lists the sources federation skipped as unreachable and has
// not yet backfilled.
func (s *Session) Skipped() []string {
	ig, err := s.integrator()
	if err != nil {
		return nil
	}
	return ig.Skipped()
}

// SourceHealth reports the per-source breaker states of the session's
// query processor; nil before federation or with breakers disabled.
func (s *Session) SourceHealth() []query.SourceHealth {
	ig, err := s.integrator()
	if err != nil {
		return nil
	}
	return ig.Processor().SourceHealth()
}

// Probe drives the session's recovery paths once: open breakers get a
// probe fetch (closing on success), and federation-skipped sources are
// re-probed and backfilled into the federated schema. It returns the
// number of sources that recovered. Safe to call concurrently with
// queries; a no-op before federation.
func (s *Session) Probe(ctx context.Context) int {
	ig, err := s.integrator()
	if err != nil {
		return 0
	}
	n := ig.Processor().ProbeOpen(ctx)
	if len(ig.Skipped()) > 0 {
		recovered, err := ig.Backfill(ctx)
		n += len(recovered)
		if err == nil && len(recovered) > 0 {
			// Backfilled sources extend the federated schema; cached
			// answers were computed without them.
			s.results.Purge()
		}
	}
	return n
}

// InvalidateExtents drops every cached extent and answer, forcing the
// next queries to re-fetch from the sources. This is the ops lever for
// fault drills: cached extents otherwise shield a downed source from
// queries indefinitely.
func (s *Session) InvalidateExtents() {
	if ig, err := s.integrator(); err == nil {
		ig.Processor().InvalidateCache()
	}
	s.results.Purge()
}

// integrator returns the session's integrator, or an error before
// Federate.
func (s *Session) integrator() (*core.Integrator, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ig == nil {
		return nil, fmt.Errorf("server: session %q is not federated yet", s.name)
	}
	return s.ig, nil
}

// Intersect runs one integration iteration and selectively invalidates
// the result cache: only cached answers whose dependency closure
// intersects the iteration's touch-set are evicted; warm answers for
// untouched schemes stay live across the new schema version.
func (s *Session) Intersect(name string, mappings []core.Mapping, enables ...string) (*core.Intersection, error) {
	ig, err := s.integrator()
	if err != nil {
		return nil, err
	}
	in, err := ig.Intersect(name, mappings, enables...)
	if err != nil {
		return nil, err
	}
	s.results.InvalidateDeps(in.Touched...)
	return in, nil
}

// Refine applies an ad-hoc single-schema transformation and evicts the
// cached answers that depend on its target.
func (s *Session) Refine(name string, m core.Mapping, enables ...string) error {
	ig, err := s.integrator()
	if err != nil {
		return err
	}
	if err := ig.Refine(name, m, enables...); err != nil {
		return err
	}
	if tsc, err := m.TargetScheme(); err == nil {
		s.results.InvalidateDeps(tsc.Key())
	} else {
		// Unreachable after a successful Refine; purge defensively so
		// an unparseable target can never leave stale answers live.
		s.results.Purge()
	}
	return nil
}

// QueryOutcome reports how a query was answered, for response metadata
// and cache-behaviour tests.
type QueryOutcome struct {
	PlanCached   bool
	ResultCached bool
}

// Answer pairs a query result with its response renderings. Both are
// computed once, when the answer is first evaluated, and cached with
// it, so a result-cache hit skips the canonical re-rendering (bag
// sorting included) as well as the re-evaluation.
type Answer struct {
	core.Result
	// JSONValue is Result.Value's canonical JSON encoding (see
	// iql.AppendJSON), spliced into /query responses as is.
	JSONValue []byte
	// Rendered is Result.Value in IQL source syntax.
	Rendered string
}

// render fills the answer's response renderings from its result, each
// written into pooled scratch and copied out at its exact size. A value
// JSON cannot represent (a NaN or infinite float) is an encodeError.
func (a *Answer) render() error {
	buf := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(buf)
	b, err := iql.AppendJSON((*buf)[:0], a.Value)
	if err != nil {
		*buf = b
		return encodeError{err}
	}
	a.JSONValue = append([]byte(nil), b...)
	b = a.Value.AppendText(b[:0])
	a.Rendered = string(b)
	*buf = b
	return nil
}

// encodeError is a response that cannot be encoded as JSON; it is
// answered with 500.
type encodeError struct{ err error }

func (e encodeError) Error() string { return "server: encoding response: " + e.err.Error() }

func (e encodeError) Unwrap() error { return e.err }

// Query answers an IQL query against the requested schema version
// (core.CurrentVersion for the latest), consulting the plan cache and
// — unless noCache — the result cache.
func (s *Session) Query(ctx context.Context, plans *cache.Store[plan], src string, version int, noCache bool) (Answer, QueryOutcome, error) {
	ig, err := s.integrator()
	if err != nil {
		return Answer{}, QueryOutcome{}, err
	}

	var out QueryOutcome
	psp, _ := obs.StartSpan(ctx, obs.StageParse, "")
	pl, ok := plans.Get(src)
	if ok {
		out.PlanCached = true
		psp.SetCache(obs.CacheHit)
		psp.End(nil)
	} else {
		e, err := iql.Parse(src)
		psp.SetCache(obs.CacheMiss)
		psp.End(err)
		if err != nil {
			return Answer{}, out, err
		}
		pl = plan{expr: e, norm: e.String()}
		plans.Put(src, pl, planCost(src, pl), nil)
	}

	ver := version
	if ver == core.CurrentVersion {
		ver = ig.GlobalVersion()
	}
	key := fmt.Sprintf("%d\x00%s", ver, pl.norm)
	if !noCache {
		if ans, ok := s.results.Get(key); ok {
			out.ResultCached = true
			if sp, _ := obs.StartSpan(ctx, obs.StageResultCache, ""); sp != nil {
				sp.SetCache(obs.CacheHit)
				sp.End(nil)
			}
			return ans, out, nil
		}
		if sp, _ := obs.StartSpan(ctx, obs.StageResultCache, ""); sp != nil {
			sp.SetCache(obs.CacheMiss)
			sp.End(nil)
		}
	}

	// Snapshot the invalidation generation before evaluating: if an
	// iteration's InvalidateDeps lands between our evaluation (under
	// the integrator's read lock) and the insert below, PutAt discards
	// the result — it was computed from pre-iteration derivations and
	// caching it would dodge the invalidation that covered it.
	gen := s.results.Generation()
	res, err := ig.QueryExprAt(ctx, version, pl.expr)
	if err != nil {
		return Answer{}, out, err
	}
	ans := Answer{Result: res}
	rsp, _ := obs.StartSpan(ctx, obs.StageRender, "")
	err = ans.render()
	rsp.End(err)
	if err != nil {
		return Answer{}, out, err
	}
	if !noCache && res.Version == ver {
		// res.Version can differ from ver only if an iteration raced
		// between GlobalVersion and evaluation; skip caching then
		// rather than file the result under the wrong version.
		s.results.PutAt(gen, key, ans, resultCost(ans), res.Deps)
	}
	return ans, out, nil
}

// resultCost estimates a cached answer's in-memory size for the result
// cache's byte budget: the value, both renderings at their actual
// sizes, and the metadata.
func resultCost(a Answer) int64 {
	n := a.Value.Footprint() + int64(len(a.Schema)) + 64
	n += int64(len(a.JSONValue) + len(a.Rendered))
	for _, w := range a.Warnings {
		n += int64(len(w)) + 16
	}
	for _, d := range a.Deps {
		n += int64(len(d)) + 16
	}
	return n
}

// planCost estimates a cached plan's size: the source text it is keyed
// by plus its normalised rendering (the AST is of the same order).
func planCost(src string, pl plan) int64 {
	return int64(len(src) + 2*len(pl.norm) + 64)
}

// Export captures the session's durable state: the integrator snapshot
// once federated, otherwise the registered sources. Non-serialisable
// sources (wrappers without a Snapshot hook) make the session
// non-exportable and are reported by name.
func (s *Session) Export() (*sessionState, error) {
	s.mu.RLock()
	ig := s.ig
	ws := append([]wrapper.Wrapper(nil), s.wrappers...)
	s.mu.RUnlock()

	state := &sessionState{Format: storeFormat, Name: s.name}
	if ig != nil {
		snap, err := ig.Export()
		if err != nil {
			return nil, fmt.Errorf("server: exporting session %q: %w", s.name, err)
		}
		state.Integrator = snap
		return state, nil
	}
	snaps, err := wrapper.SnapshotAll(ws)
	if err != nil {
		return nil, fmt.Errorf("server: exporting session %q: %w", s.name, err)
	}
	state.Sources = snaps
	return state, nil
}

// sessionFromState rebuilds a session from its durable state. The
// restored session starts cold: every cache layer (results, extent
// memo, source extents) is empty and warms on demand, so restore never
// replays stale derived state — the snapshot holds definitions, not
// materialisations.
func sessionFromState(state *sessionState, cfg SessionSettings) (*Session, error) {
	sess := newSession(state.Name, cfg)
	if state.Integrator != nil {
		ig, err := core.Import(state.Integrator)
		if err != nil {
			return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
		}
		cfg.applyTo(ig.Processor())
		sess.ig = ig
		sess.wrappers = ig.Sources()
		return sess, nil
	}
	for _, ws := range state.Sources {
		w, err := wrapper.Restore(ws)
		if err != nil {
			return nil, fmt.Errorf("server: restoring session %q: %w", state.Name, err)
		}
		sess.wrappers = append(sess.wrappers, w)
	}
	return sess, nil
}

// ResultCacheStats snapshots the session's result cache.
func (s *Session) ResultCacheStats() CacheStats { return s.results.Stats() }

// ExtentCacheStats snapshots the session's query-processor cache
// layers: the virtual-extent memo and the source-extent cache. Both are
// zero before federation.
func (s *Session) ExtentCacheStats() (memo, src CacheStats) {
	ig, err := s.integrator()
	if err != nil {
		return CacheStats{}, CacheStats{}
	}
	return ig.Processor().CacheStats()
}

// ParallelStats snapshots the session processor's sharded-evaluation
// counters; zero before federation.
func (s *Session) ParallelStats() query.ParallelStats {
	ig, err := s.integrator()
	if err != nil {
		return query.ParallelStats{}
	}
	return ig.Processor().ParallelStats()
}

// PurgeResults empties the session's result cache.
func (s *Session) PurgeResults() { s.results.Purge() }

// Registry is the named-session table.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	settings SessionSettings
}

// NewRegistry returns an empty registry; every session it creates is
// configured from the given settings.
func NewRegistry(cfg SessionSettings) *Registry {
	return &Registry{
		sessions: make(map[string]*Session),
		settings: cfg,
	}
}

// Get returns the named session, creating it when create is set.
func (r *Registry) Get(name string, create bool) (*Session, error) {
	if name == "" {
		name = "default"
	}
	r.mu.RLock()
	s, ok := r.sessions[name]
	r.mu.RUnlock()
	if ok {
		return s, nil
	}
	if !create {
		return nil, fmt.Errorf("server: no session %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[name]; ok {
		return s, nil
	}
	s = newSession(name, r.settings)
	r.sessions[name] = s
	return s, nil
}

// Put installs (or replaces) a session under its name; used when
// restoring sessions from the store.
func (r *Registry) Put(sess *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions[sess.name] = sess
}

// Names lists the registered session names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sessions))
	for n := range r.sessions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered session.
func (r *Registry) All() []*Session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	return out
}

// Len returns the number of sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}
