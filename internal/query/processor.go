// Package query implements AutoMed's query processor for the BAV
// setting: users' IQL queries expressed on an integrated (virtual)
// schema are answered by recursively unfolding the view definitions
// carried by the add/extend steps of the pathways from the data source
// schemas (GAV unfolding); the reverse direction — answering source
// queries from an integrated resource — falls out of the automatic
// reversibility of pathways (LAV), per paper §2.1.
//
// An object added by several pathways (one per data source) has as its
// extent the bag union of all of its derivations, which is AutoMed's
// default semantics for integrated objects and the one the paper
// assumes. Extends contribute their lower bound and flag the answer as
// potentially incomplete.
//
// Derivations are *scoped*: a derivation registered from the pathway
// ES_i → I evaluates its unqualified scheme references against the
// schema of data source ES_i first, exactly as the paper's
// transformations are written (e.g. <<protein>> inside Pedro's pathway
// means Pedro's protein table even though PepSeeker also has one).
//
// Both extent caches — the virtual-extent memo and the source-extent
// cache — are dependency-tagged cache.Stores: every memoised extent
// records the transitive set of scheme keys its computation touched, so
// that registering new derivations (an integration iteration) evicts
// exactly the affected entries via InvalidateSchemes instead of purging
// all cached work.
package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dataspace/automed/internal/cache"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/transform"
)

// Derivation is one definition of a virtual object's extent.
type Derivation struct {
	// Query computes (part of) the extent; for extends this is the
	// Range whose lower bound is used.
	Query iql.Expr
	// Lower marks a lower-bound-only derivation (from an extend step):
	// answers through it are certain but possibly incomplete.
	Lower bool
	// Via records the pathway that introduced the derivation, for
	// provenance reporting.
	Via string
	// Scope names the data source schema whose objects unqualified
	// references resolve against first; empty means unscoped.
	Scope string
}

// source is one registered extent provider. ext is the provider
// itself; scan is its scanner path, nil when it offers none (it is
// then read through ext.Extent); fb is its stale-fallback path
// (snapshot extents held for offline use), nil when it offers none;
// kind labels the provider's wrapper flavour in metrics and traces;
// streams reports whether its scans actually page from the backend (a
// materialised-scan adapter sets scan but not streams, and the
// pipeline never streams it).
type source struct {
	name    string
	schema  *hdm.Schema
	ext     iql.Extents
	scan    ScanSourcer
	fb      FallbackSourcer
	kind    string
	streams bool
}

// cachedExtent memoises a virtual object's extent together with the
// incompleteness warnings its computation raised (cache hits replay the
// warnings instead of silently reporting an incomplete answer as
// complete) and the transitive set of scheme keys the computation
// touched (its dependency set, which cache hits replay into the current
// session so enclosing computations inherit it).
type cachedExtent struct {
	val   iql.Value
	warns []string
	deps  []string
}

// cost estimates the entry's in-memory size for the byte budget.
func (ce cachedExtent) cost() int64 {
	n := ce.val.Footprint()
	for _, w := range ce.warns {
		n += int64(len(w)) + 16
	}
	for _, d := range ce.deps {
		n += int64(len(d)) + 16
	}
	return n
}

// Processor answers IQL queries over virtual schemas backed by data
// source wrappers. It is safe for concurrent use.
type Processor struct {
	mu      sync.Mutex
	sources []source
	defs    map[string][]Derivation
	memo    *cache.Store[cachedExtent]
	srcExt  *cache.Store[iql.Value]
	// joinIdx caches built hash-join indexes across every evaluator the
	// processor spawns, keyed by extent identity (see iql.JoinIndexCache):
	// a large memoised extent joined by many queries is indexed once per
	// extent version.
	joinIdx  *iql.JoinIndexCache
	warnings map[string]bool
	// MaxSteps bounds IQL evaluation per query; 0 means unlimited. The
	// budget is shared across every derivation a query unfolds, not per
	// derivation.
	MaxSteps int
	// Parallel sets the worker count for data-parallel comprehension
	// evaluation: 0 picks GOMAXPROCS, 1 forces serial evaluation, and
	// larger values set the pool width explicitly. Sharded evaluation
	// is byte-identical to serial, so this is purely a performance
	// knob.
	Parallel int
	// PrefetchWorkers and PrefetchMaxTasks override the concurrent
	// extent prefetcher's pool width and per-query task budget; 0
	// keeps the defaults (see prefetch.go).
	PrefetchWorkers  int
	PrefetchMaxTasks int
	// ScanBuffer sets the streaming pipeline's row window (see
	// stream.go): extents at or below it materialise and cache as
	// before, larger ones stream through a bounded prefetch buffer of
	// this many rows. 0 picks DefaultScanBufferRows; negative disables
	// streaming so every extent materialises.
	ScanBuffer int

	// brCfg and breakers implement the per-source circuit breakers (see
	// breaker.go); both are guarded by mu. Breakers are created lazily
	// per source name on first fetch, so sources registered after
	// SetBreaker are covered too.
	brCfg    BreakerConfig
	breakers map[string]*breaker
	// lastGood retains the most recent successful read of source
	// extents for stale-extent fallback, keyed like srcExt entries and
	// bounded by the same byte budget. It is deliberately separate from
	// srcExt and never invalidated: cache invalidation must evict cached
	// extents (so queries refetch), but must not destroy the fallback
	// copy a broken source will be served from.
	lastGood *cache.Store[lastGoodEntry]

	statParallelEvals atomic.Uint64
	statSerialEvals   atomic.Uint64
	statShards        atomic.Uint64
}

// evalParallel resolves the effective sharded-evaluation width.
func (p *Processor) evalParallel() int {
	if p.Parallel > 0 {
		return p.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelStats snapshots the processor's sharded-evaluation counters.
type ParallelStats struct {
	// ParallelEvals and SerialEvals split completed top-level
	// evaluations by whether any generator scan sharded.
	ParallelEvals uint64
	SerialEvals   uint64
	// Shards is the total number of shards executed.
	Shards uint64
	// Width is the effective worker-pool width for new evaluations.
	Width int
}

// ParallelStats reports sharded-evaluation activity since startup.
func (p *Processor) ParallelStats() ParallelStats {
	return ParallelStats{
		ParallelEvals: p.statParallelEvals.Load(),
		SerialEvals:   p.statSerialEvals.Load(),
		Shards:        p.statShards.Load(),
		Width:         p.evalParallel(),
	}
}

// noteEval folds one finished evaluation's sharding telemetry into the
// processor counters and, when a span is recording, its detail field.
func (p *Processor) noteEval(st *iql.EvalStats, sp *obs.Span) {
	sh := st.Sharded()
	if len(sh) == 0 {
		p.statSerialEvals.Add(1)
		return
	}
	p.statParallelEvals.Add(1)
	shards, workers := 0, 0
	var slowest time.Duration
	for _, s := range sh {
		shards += s.Shards
		if s.Workers > workers {
			workers = s.Workers
		}
		if s.ShardMax > slowest {
			slowest = s.ShardMax
		}
	}
	p.statShards.Add(uint64(shards))
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("sharded scans=%d shards=%d workers=%d shard_max=%s",
			len(sh), shards, workers, slowest.Round(time.Microsecond)))
	}
}

// New returns an empty processor. Its extent caches are unbounded until
// SetCacheBytes installs a byte budget.
func New() *Processor {
	return &Processor{
		defs:     make(map[string][]Derivation),
		memo:     cache.New[cachedExtent](cache.Options{}),
		srcExt:   cache.New[iql.Value](cache.Options{}),
		joinIdx:  iql.NewJoinIndexCache(0),
		warnings: make(map[string]bool),
		breakers: make(map[string]*breaker),
		lastGood: cache.New[lastGoodEntry](cache.Options{}),
	}
}

// SetBreaker installs (or disables) the per-source circuit-breaker and
// stale-fallback configuration. Existing breakers are dropped so the
// new thresholds apply uniformly.
func (p *Processor) SetBreaker(cfg BreakerConfig) {
	if cfg.Enabled {
		cfg = cfg.withDefaults()
	}
	p.mu.Lock()
	p.brCfg = cfg
	p.breakers = make(map[string]*breaker)
	p.mu.Unlock()
}

// breakerFor returns the source's breaker, creating it on first use;
// nil when the breaker layer is disabled.
func (p *Processor) breakerFor(name string) *breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.brCfg.Enabled {
		return nil
	}
	b := p.breakers[name]
	if b == nil {
		b = newBreaker(p.brCfg)
		p.breakers[name] = b
	}
	return b
}

// lastGoodEntry is one retained last-known-good source extent.
type lastGoodEntry struct {
	val iql.Value
	at  time.Time
}

// noteGood retains a successful read of cost bytes for stale-extent
// fallback, when fallback can serve it: breakers enabled (br non-nil)
// and fallback not disabled.
func (p *Processor) noteGood(br *breaker, ck string, v iql.Value, cost int64) {
	if br == nil || br.cfg.DisableFallback {
		return
	}
	p.lastGood.Put(ck, lastGoodEntry{val: v, at: time.Now()}, cost, nil)
}

// SourceHealth reports every registered source's breaker state, in
// registration order. Sources never fetched report closed breakers.
func (p *Processor) SourceHealth() []SourceHealth {
	p.mu.Lock()
	if !p.brCfg.Enabled {
		p.mu.Unlock()
		return nil
	}
	type sb struct {
		name, kind string
		b          *breaker
	}
	list := make([]sb, 0, len(p.sources))
	for _, s := range p.sources {
		list = append(list, sb{name: s.name, kind: s.kind, b: p.breakers[s.name]})
	}
	p.mu.Unlock()
	out := make([]SourceHealth, 0, len(list))
	for _, e := range list {
		h := SourceHealth{State: stateName(breakerClosed)}
		if e.b != nil {
			h = e.b.health()
		}
		h.Source, h.Kind = e.name, e.kind
		out = append(out, h)
	}
	return out
}

// ProbeOpen reads one extent through every open (or stuck half-open)
// breaker whose probe interval has elapsed, letting recovered sources
// close their breakers without waiting for query traffic. It returns
// how many sources probed successfully. Healthy sources are not
// touched.
func (p *Processor) ProbeOpen(ctx context.Context) int {
	p.mu.Lock()
	type sb struct {
		src source
		b   *breaker
	}
	var due []sb
	if p.brCfg.Enabled {
		for _, s := range p.sources {
			if b := p.breakers[s.name]; b != nil {
				due = append(due, sb{src: s, b: b})
			}
		}
	}
	p.mu.Unlock()
	recovered := 0
	for _, e := range due {
		sc, ok := probeScheme(e.src.schema)
		if !ok || e.b.closed() {
			continue
		}
		r, err := p.openRead(ctx, e.src, sc, false)
		if err != nil {
			continue // still open: the probe interval has not elapsed
		}
		if _, _, err := r.materialise(nil); err != nil {
			if ctx.Err() != nil {
				// The probe run itself was cancelled; that says nothing
				// about the source.
				return recovered
			}
			continue
		}
		// The source is back: evict everything computed while it was
		// down (memoised virtual extents carrying degraded warnings
		// depend on the source's scheme keys), so the next queries
		// recompute over fresh data.
		keys := make([]string, 0, e.src.schema.Len())
		for _, o := range e.src.schema.Objects() {
			keys = append(keys, o.Scheme.Key())
		}
		p.InvalidateSchemes(keys...)
		recovered++
	}
	return recovered
}

// probeScheme picks a deterministic probe object from a source schema:
// its first object in scheme-key order.
func probeScheme(sch *hdm.Schema) (hdm.Scheme, bool) {
	var best hdm.Scheme
	found := false
	for _, o := range sch.Objects() {
		if !found || o.Scheme.Key() < best.Key() {
			best, found = o.Scheme, true
		}
	}
	return best, found
}

// SetCacheBytes bounds each extent cache layer (the virtual-extent
// memo, the source-extent cache, the join-index cache — whose entries
// retain the extents they index — and the last-good fallback copies)
// to budget bytes, evicting entries beyond it; budget <= 0 removes the
// bound.
func (p *Processor) SetCacheBytes(budget int64) {
	p.memo.SetMaxBytes(budget)
	p.srcExt.SetMaxBytes(budget)
	p.joinIdx.SetMaxBytes(budget)
	p.lastGood.SetMaxBytes(budget)
}

// CacheStats snapshots the two extent cache layers: the virtual-extent
// memo and the source-extent cache.
func (p *Processor) CacheStats() (memo, src cache.Stats) {
	return p.memo.Stats(), p.srcExt.Stats()
}

// Sourcer is the subset of wrapper behaviour the processor needs; it is
// satisfied by wrapper implementations. Reads must tolerate concurrent
// calls: the processor prefetches the extents a query enumerates in
// parallel (misses of the same object are still coalesced to a single
// read by the source-extent cache).
type Sourcer interface {
	SchemaName() string
	Schema() *hdm.Schema
	Extent(parts []string) (iql.Value, error)
}

// AddSource registers a data source. Source schema objects are
// authoritative: references resolving in exactly one source schema are
// answered by that source. Sources implementing ScanSourcer are read
// through their scanners, under the request context, so per-request
// timeouts and cancellation reach the wire read.
func (p *Processor) AddSource(w Sourcer) error {
	if w == nil {
		return fmt.Errorf("query: nil source")
	}
	return p.AddExtents(w.SchemaName(), w.Schema(), w)
}

// AddExtents registers a generic extent provider with an explicit
// schema, e.g. a materialised global schema used to answer source
// queries in the reverse (LAV) direction.
func (p *Processor) AddExtents(name string, schema *hdm.Schema, ext iql.Extents) error {
	if name == "" || schema == nil || ext == nil {
		return fmt.Errorf("query: invalid extent source")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sources {
		if s.name == name {
			return fmt.Errorf("query: source %q already registered", name)
		}
	}
	src := source{name: name, schema: schema, ext: ext, kind: "local"}
	if fb, ok := ext.(FallbackSourcer); ok {
		src.fb = fb
	}
	if k, ok := ext.(interface{ Kind() string }); ok {
		src.kind = k.Kind()
	}
	if sc, ok := ext.(ScanSourcer); ok {
		src.scan = sc
		if st, ok := ext.(interface{ StreamingScans() bool }); ok {
			src.streams = st.StreamingScans()
		}
	}
	p.sources = append(p.sources, src)
	return nil
}

// SourceNames returns registered source names in registration order.
func (p *Processor) SourceNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.sources))
	for i, s := range p.sources {
		out[i] = s.name
	}
	return out
}

// RegisterPathway installs the view definitions induced by a pathway's
// steps, all scoped to the given source schema name: add(o,q) defines o
// by q; extend(o, Range lo hi) defines a lower bound for o; rename(o,n)
// defines n by o; id(a,b) defines each of a, b by the other (cycles are
// cut during evaluation, yielding the union across an ident chain
// exactly once; self-ids register nothing). delete and contract steps
// induce no forward definitions. Cached extents depending on the newly
// defined objects are selectively invalidated; unrelated entries stay
// live.
func (p *Processor) RegisterPathway(pw *transform.Pathway, scope string) error {
	if pw == nil {
		return fmt.Errorf("query: nil pathway")
	}
	p.mu.Lock()
	via := pw.Source + "->" + pw.Target
	var defined []string
	for _, t := range pw.Steps {
		switch t.Kind {
		case transform.Add:
			p.defs[t.Object.Key()] = append(p.defs[t.Object.Key()],
				Derivation{Query: t.Query, Via: via, Scope: scope})
			defined = append(defined, t.Object.Key())
		case transform.Extend:
			p.defs[t.Object.Key()] = append(p.defs[t.Object.Key()],
				Derivation{Query: t.Query, Lower: true, Via: via, Scope: scope})
			defined = append(defined, t.Object.Key())
		case transform.Rename:
			p.defs[t.To.Key()] = append(p.defs[t.To.Key()],
				Derivation{Query: iql.Ref(t.Object.Parts()...), Via: via, Scope: scope})
			defined = append(defined, t.To.Key())
		case transform.ID:
			if t.Object.Key() == t.To.Key() {
				continue // self-id: no definitional content in one namespace
			}
			p.defs[t.Object.Key()] = append(p.defs[t.Object.Key()],
				Derivation{Query: iql.Ref(t.To.Parts()...), Via: via, Scope: scope})
			p.defs[t.To.Key()] = append(p.defs[t.To.Key()],
				Derivation{Query: iql.Ref(t.Object.Parts()...), Via: via, Scope: scope})
			defined = append(defined, t.Object.Key(), t.To.Key())
		case transform.Delete, transform.Contract:
			// No forward definition.
		}
	}
	p.mu.Unlock()
	p.InvalidateSchemes(defined...)
	return nil
}

// Define installs a single ad-hoc derivation for a virtual object,
// selectively invalidating cached extents that depend on it.
func (p *Processor) Define(sc hdm.Scheme, q iql.Expr, via, scope string) {
	p.mu.Lock()
	p.defs[sc.Key()] = append(p.defs[sc.Key()], Derivation{Query: q, Via: via, Scope: scope})
	p.mu.Unlock()
	p.InvalidateSchemes(sc.Key())
}

// ObjectDef is one derivation in a DefineAll batch.
type ObjectDef struct {
	Scheme hdm.Scheme
	Query  iql.Expr
	Via    string
	Scope  string
}

// DefineAll installs a batch of ad-hoc derivations under a single lock
// acquisition and one selective invalidation pass. Registering n
// objects through Define costs n invalidation sweeps (each of which
// also purges the join-index cache); a federation-sized batch through
// DefineAll costs one.
func (p *Processor) DefineAll(defs []ObjectDef) {
	if len(defs) == 0 {
		return
	}
	keys := make([]string, 0, len(defs))
	p.mu.Lock()
	for _, d := range defs {
		k := d.Scheme.Key()
		p.defs[k] = append(p.defs[k], Derivation{Query: d.Query, Via: d.Via, Scope: d.Scope})
		keys = append(keys, k)
	}
	p.mu.Unlock()
	p.InvalidateSchemes(keys...)
}

// Derivations returns the registered derivations for an object (for
// provenance display).
func (p *Processor) Derivations(sc hdm.Scheme) []Derivation {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Derivation(nil), p.defs[sc.Key()]...)
}

// HasDefinition reports whether the object has at least one derivation.
func (p *Processor) HasDefinition(sc hdm.Scheme) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.defs[sc.Key()]) > 0
}

// DefineDerivation installs a fully-specified derivation, preserving
// its Lower/Via/Scope metadata. It is the restore-side counterpart of
// AllDerivations, used when rebuilding a processor from a snapshot.
func (p *Processor) DefineDerivation(sc hdm.Scheme, d Derivation) {
	p.mu.Lock()
	p.defs[sc.Key()] = append(p.defs[sc.Key()], d)
	p.mu.Unlock()
	p.InvalidateSchemes(sc.Key())
}

// ObjectDerivations pairs a virtual object's scheme key with its
// derivations in registration order.
type ObjectDerivations struct {
	Key    string
	Derivs []Derivation
}

// AllDerivations returns every registered derivation: keys sorted for
// deterministic snapshots, derivations within a key in registration
// order (the order extents accumulate in during unfolding).
func (p *Processor) AllDerivations() []ObjectDerivations {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.defs))
	for k := range p.defs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ObjectDerivations, 0, len(keys))
	for _, k := range keys {
		out = append(out, ObjectDerivations{Key: k, Derivs: append([]Derivation(nil), p.defs[k]...)})
	}
	return out
}

// DefinedObjects returns the scheme keys of all virtual objects, sorted.
func (p *Processor) DefinedObjects() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.defs))
	for k := range p.defs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// InvalidateCache clears every memoised extent wholesale. It remains
// for source-data changes of unknown extent; integration iterations use
// the selective InvalidateSchemes instead.
func (p *Processor) InvalidateCache() {
	p.memo.Purge()
	p.srcExt.Purge()
	// Stale join indexes are harmless (they are keyed by retained extent
	// identity), but a full purge is the moment to drop their memory.
	p.joinIdx.Purge()
}

// InvalidateSchemes evicts exactly the cached extents whose dependency
// set intersects keys — each memoised extent knows the transitive set
// of source and virtual scheme keys its computation touched — and
// returns how many entries were dropped. Unrelated cached extents
// survive, which is what keeps warm answers live across integration
// iterations.
func (p *Processor) InvalidateSchemes(keys ...string) int {
	if len(keys) == 0 {
		return 0
	}
	dropped := p.memo.InvalidateDeps(keys...) + p.srcExt.InvalidateDeps(keys...)
	// Join indexes retain the extent arrays they were built over, so an
	// iteration must not leave indexes of retired extent versions
	// pinned. The cache has no per-scheme dependency tracking; purging
	// it wholesale is cheap because indexes rebuild on demand from the
	// (still warm) surviving extents.
	p.joinIdx.Purge()
	return dropped
}

// Warnings returns accumulated incompleteness warnings, sorted.
func (p *Processor) Warnings() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.warnings))
	for w := range p.warnings {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// ClearWarnings discards accumulated warnings.
func (p *Processor) ClearWarnings() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.warnings = make(map[string]bool)
}

// warnIn records a warning in the session (per-evaluation reporting,
// race-free under concurrent queries; the ordered log also feeds the
// extent memo cache) and in the processor's accumulated set (the
// legacy Warnings API).
func (p *Processor) warnIn(s *session, msg string) {
	if s.warnings != nil {
		s.warnings[msg] = true
	}
	s.warnLog = append(s.warnLog, msg)
	p.mu.Lock()
	p.warnings[msg] = true
	p.mu.Unlock()
}

// session threads the recursion stack and scope stack through one query
// evaluation so that ident cycles are cut exactly once, mid-cycle
// results are not memoised, and each derivation's references resolve in
// its own source scope.
type session struct {
	p       *Processor
	onStack map[string]bool
	scopes  []string
	cut     bool
	// ctx, when non-nil, cancels long evaluations (per-request
	// timeouts); it is handed to every evaluator the session spawns.
	ctx context.Context
	// budget is the evaluation step budget shared by every evaluator
	// this session spawns, so MaxSteps bounds the whole query rather
	// than each derivation separately.
	budget *iql.StepBudget
	// warnings, when non-nil, collects the incompleteness warnings
	// raised during this one evaluation.
	warnings map[string]bool
	// warnLog is the ordered warning stream of this evaluation; each
	// virtual extent caches the slice it contributed so that memo-
	// cache hits replay the warnings of the computation they reuse.
	warnLog []string
	// depLog is the ordered stream of scheme keys this evaluation
	// touched (source and virtual); each virtual extent caches the
	// slice it contributed as its dependency set, and memo-cache hits
	// replay the reused computation's dependencies, so the log is
	// always the transitive touch-set of the evaluation so far.
	depLog []string
	// stats collects sharding telemetry across every evaluator this
	// session spawns (it is concurrency-safe).
	stats *iql.EvalStats
}

// evaluator builds an IQL evaluator wired to this session: shared step
// budget, request context, the processor-wide join-index cache, and
// the sharded-evaluation settings. Sharded workers serialise their
// session access internally (see iql/parallel.go), so handing the
// session itself as the extent source stays correct under parallelism.
func (s *session) evaluator() *iql.Evaluator {
	return &iql.Evaluator{
		Ext:      s,
		Budget:   s.budget,
		Ctx:      s.ctx,
		Indexes:  s.p.joinIdx,
		Parallel: s.p.evalParallel(),
		Stats:    s.stats,
	}
}

// newSession builds an evaluation session with a fresh per-query step
// budget.
func (p *Processor) newSession(ctx context.Context, scopes ...string) *session {
	return &session{
		p:       p,
		onStack: make(map[string]bool),
		scopes:  scopes,
		ctx:     ctx,
		budget:  &iql.StepBudget{Max: p.MaxSteps},
		stats:   &iql.EvalStats{},
	}
}

func (s *session) scope() string {
	if len(s.scopes) == 0 {
		return ""
	}
	return s.scopes[len(s.scopes)-1]
}

// dep records a touched scheme key.
func (s *session) dep(key string) {
	s.depLog = append(s.depLog, key)
}

// deps returns the distinct scheme keys this session touched, sorted.
func (s *session) deps() []string {
	out := cache.Dedup(s.depLog)
	sort.Strings(out)
	return out
}

// Extent implements iql.Extents for evaluation within a session.
func (s *session) Extent(parts []string) (iql.Value, error) {
	return s.p.extentIn(s, parts)
}

// Extent returns the extent of the referenced object: virtual objects
// by unfolding their derivations (their source extents are prefetched
// concurrently first), source objects from their wrapper.
func (p *Processor) Extent(parts []string) (iql.Value, error) {
	p.prefetch(nil, iql.Ref(parts...), "")
	return p.extentIn(p.newSession(nil), parts)
}

// ScopedExtent resolves parts as if referenced from within the given
// source scope (used by tools displaying per-source extents).
func (p *Processor) ScopedExtent(scope string, parts []string) (iql.Value, error) {
	return p.extentIn(p.newSession(nil, scope), parts)
}

func (p *Processor) extentIn(s *session, parts []string) (iql.Value, error) {
	// 1. Current scope's source schema wins for unqualified references,
	// matching the paper's per-pathway query context.
	if sc := s.scope(); sc != "" {
		if src, obj, ok := p.resolveIn(sc, parts); ok {
			return p.sourceExtent(s, src, obj)
		}
	}

	// 2. Virtual objects (exact scheme key).
	key := strings.Join(parts, "|")
	p.mu.Lock()
	derivs, virtual := p.defs[key]
	p.mu.Unlock()
	if virtual {
		name := strings.Join(parts, ", ")
		if ce, ok := p.memo.Get(key); ok {
			// Replay the reused computation's warnings and dependency
			// set so the enclosing evaluation inherits both.
			for _, w := range ce.warns {
				p.warnIn(s, w)
			}
			s.depLog = append(s.depLog, ce.deps...)
			if sp, _ := obs.StartSpan(s.ctx, obs.StageExtent, name); sp != nil {
				sp.SetCache(obs.CacheHit)
				if ce.val.Kind == iql.KindBag {
					sp.SetRows(int64(len(ce.val.Items)))
				}
				sp.End(nil)
			}
			return ce.val, nil
		}
		// A memo miss spans the unfolding, so the fetch (and nested
		// extent) spans of the computation appear as its children.
		sp, ctx := obs.StartSpan(s.ctx, obs.StageExtent, name)
		if sp == nil {
			return p.virtualExtent(s, key, parts, derivs)
		}
		sp.SetCache(obs.CacheMiss)
		saved := s.ctx
		s.ctx = ctx
		v, err := p.virtualExtent(s, key, parts, derivs)
		s.ctx = saved
		if err == nil && v.Kind == iql.KindBag {
			sp.SetRows(int64(len(v.Items)))
		}
		sp.End(err)
		return v, err
	}

	// 3. Unambiguous global source resolution.
	hits := p.resolveGlobal(parts)
	switch len(hits) {
	case 0:
		return iql.Value{}, fmt.Errorf("query: unknown schema object <<%s>>", strings.Join(parts, ", "))
	case 1:
		// The reference key itself is a dependency: a later derivation
		// registered under it changes this resolution from source to
		// virtual, so dependents must be invalidated then.
		s.dep(key)
		return p.sourceExtent(s, hits[0].src, hits[0].sc)
	default:
		names := make([]string, len(hits))
		for i, h := range hits {
			names[i] = h.src.name
		}
		return iql.Value{}, fmt.Errorf("query: <<%s>> is ambiguous across sources %s",
			strings.Join(parts, ", "), strings.Join(names, ", "))
	}
}

// refHit is one source schema in which a reference resolves.
type refHit struct {
	src source
	sc  hdm.Scheme
}

// resolveGlobal resolves parts against every registered source schema,
// returning each hit. It is the shared global-resolution step of
// evaluation (extentIn) and prefetch: exactly one hit means the source
// is authoritative, several mean the reference is ambiguous.
func (p *Processor) resolveGlobal(parts []string) []refHit {
	// Copy the source list under the lock, resolve unlocked: Resolve
	// walks each schema, and holding p.mu across that would serialise
	// every concurrent query's reference resolution.
	p.mu.Lock()
	srcs := append([]source(nil), p.sources...)
	p.mu.Unlock()
	var hits []refHit
	for _, src := range srcs {
		obj, err := src.schema.Resolve(parts)
		if err != nil {
			continue
		}
		hits = append(hits, refHit{src: src, sc: obj.Scheme})
	}
	return hits
}

// resolveIn resolves parts against one named source schema.
func (p *Processor) resolveIn(name string, parts []string) (source, hdm.Scheme, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, src := range p.sources {
		if src.name != name {
			continue
		}
		obj, err := src.schema.Resolve(parts)
		if err != nil {
			return source{}, hdm.Scheme{}, false
		}
		return src, obj.Scheme, true
	}
	return source{}, hdm.Scheme{}, false
}

// sourceExtent reads (or reuses) one source object's extent.
// Concurrent misses of the same object coalesce into a single read via
// the cache's singleflight GetOrCompute. Coalescing shares errors, so a
// read cancelled by its initiating request's deadline would fail every
// waiter; a waiter whose own context is still live retries once under
// it instead of inheriting a cancellation that was never its. A read
// that delivers no extent settles through failedRead.
func (p *Processor) sourceExtent(s *session, src source, sc hdm.Scheme) (iql.Value, error) {
	key := sc.Key()
	s.dep(key)
	ck := src.name + "\x00" + key
	fetched := false
	compute := func() (iql.Value, int64, error) {
		fetched = true
		return p.fetchExtent(s.ctx, src, sc)
	}
	v, shared, err := p.srcExt.GetOrCompute(ck, []string{key}, compute)
	if err != nil && shared && isCancellation(err) && (s.ctx == nil || s.ctx.Err() == nil) {
		v, _, err = p.srcExt.GetOrCompute(ck, []string{key}, compute)
	}
	// Cache hits (including waits coalesced onto another request's
	// in-flight read) record a zero-cost hit span so traces show where
	// an extent came from; misses were recorded by the read itself.
	if !fetched && s.ctx != nil {
		if sp, _ := obs.StartSpan(s.ctx, obs.StageFetch, src.name); sp != nil {
			sp.SetDetail(sc.Key())
			sp.SetCache(obs.CacheHit)
			if err == nil && v.Kind == iql.KindBag {
				sp.SetRows(int64(len(v.Items)))
			}
			sp.End(err)
		}
	}
	if err != nil {
		return p.failedRead(s, src, sc, err)
	}
	return v, nil
}

// failedRead settles a source read that delivered no extent. With
// breakers enabled, an open breaker — or a failed read whose request is
// still live — degrades to the last-known-good extent; otherwise the
// error stands.
func (p *Processor) failedRead(s *session, src source, sc hdm.Scheme, err error) (iql.Value, error) {
	if errors.Is(err, errBreakerOpen) {
		return p.staleExtent(s, src, sc, err.Error())
	}
	if p.breakerFor(src.name) != nil && (s.ctx == nil || s.ctx.Err() == nil) {
		return p.staleExtent(s, src, sc, "fetch failed: "+compactErr(err))
	}
	return iql.Value{}, err
}

// staleExtent serves the last-known-good extent of a source object (or
// the wrapper's own snapshot fallback) when the source is unreachable,
// stamping the evaluation with a degraded warning. With no fallback
// available — or fallback disabled — the source's unavailability
// surfaces as an error.
func (p *Processor) staleExtent(s *session, src source, sc hdm.Scheme, cause string) (iql.Value, error) {
	if !p.brCfg.DisableFallback {
		lg, ok := p.lastGood.Get(src.name + "\x00" + sc.Key())
		age := time.Duration(-1)
		if ok {
			age = time.Since(lg.at)
		} else if src.fb != nil {
			// No retained copy (e.g. the daemon restarted while the
			// source was down): fall back to the wrapper's snapshot
			// extent, whose age is unknown.
			if v, found := src.fb.FallbackExtent(sc.Parts()); found {
				lg, ok = lastGoodEntry{val: v}, true
			}
		}
		if ok {
			if br := p.breakerFor(src.name); br != nil {
				br.noteFallback()
			}
			warn := degradedWarning(src.name, sc, age, cause)
			p.warnIn(s, warn)
			if sp, _ := obs.StartSpan(s.ctx, obs.StageFallback, src.name); sp != nil {
				sp.SetDetail(sc.Key())
				sp.SetCache(obs.CacheHit)
				if lg.val.Kind == iql.KindBag {
					sp.SetRows(int64(len(lg.val.Items)))
				}
				sp.End(nil)
			}
			return lg.val, nil
		}
	}
	return iql.Value{}, fmt.Errorf("query: source %s unavailable for <<%s>> (%s; no fallback extent)",
		src.name, strings.Join(sc.Parts(), ", "), cause)
}

// isCancellation reports whether err stems from context cancellation,
// however the transport wrapped it.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (p *Processor) virtualExtent(s *session, key string, parts []string, derivs []Derivation) (iql.Value, error) {
	if s.onStack[key] {
		s.cut = true
		return iql.Bag(), nil
	}
	s.onStack[key] = true
	savedCut := s.cut
	s.cut = false
	warnMark := len(s.warnLog)
	depMark := len(s.depLog)
	// The object's own key heads its dependency set: invalidating it
	// (e.g. a new derivation registered for it) must evict this memo
	// entry and everything computed on top of it.
	s.dep(key)
	var acc []iql.Value
	var evalErr error
	for _, d := range derivs {
		s.scopes = append(s.scopes, d.Scope)
		ev := s.evaluator()
		v, err := ev.Eval(d.Query, nil)
		s.scopes = s.scopes[:len(s.scopes)-1]
		if err != nil {
			evalErr = fmt.Errorf("query: unfolding <<%s>> via %s: %w",
				strings.Join(parts, ", "), d.Via, err)
			break
		}
		els, err := v.Elements()
		if err != nil {
			evalErr = fmt.Errorf("query: derivation of <<%s>> via %s is not a collection: %w",
				strings.Join(parts, ", "), d.Via, err)
			break
		}
		acc = append(acc, els...)
		if d.Lower {
			if iql.IsVoidAnyRange(d.Query) {
				p.warnIn(s, fmt.Sprintf("extent of <<%s>> is unknown via %s (Range Void Any)",
					strings.Join(parts, ", "), d.Via))
			} else {
				p.warnIn(s, fmt.Sprintf("extent of <<%s>> may be incomplete: lower bound used (via %s)",
					strings.Join(parts, ", "), d.Via))
			}
		}
	}
	delete(s.onStack, key)
	if evalErr != nil {
		return iql.Value{}, evalErr
	}
	out := iql.BagOf(acc)
	if !s.cut {
		ce := cachedExtent{val: out, deps: cache.Dedup(s.depLog[depMark:])}
		if n := len(s.warnLog) - warnMark; n > 0 {
			ce.warns = append([]string(nil), s.warnLog[warnMark:]...)
		}
		p.memo.Put(key, ce, ce.cost(), ce.deps)
	}
	s.cut = s.cut || savedCut
	return out, nil
}

// Eval evaluates a parsed IQL expression against the processor,
// prefetching the source extents the expression enumerates
// concurrently before the serial evaluation walks them.
func (p *Processor) Eval(e iql.Expr) (iql.Value, error) {
	p.prefetch(nil, e, "")
	s := p.newSession(nil)
	v, err := s.evaluator().Eval(e, nil)
	p.noteEval(s.stats, nil)
	return v, err
}

// EvalContext evaluates a parsed IQL expression under a context (for
// per-request timeouts and cancellation) and returns, alongside the
// value, the incompleteness warnings raised by this evaluation alone
// and the distinct scheme keys it touched (its dependency set, for
// selective result-cache invalidation), both sorted. Unlike the
// ClearWarnings/Eval/Warnings sequence, it is safe under concurrent
// queries: each evaluation collects its own warnings.
func (p *Processor) EvalContext(ctx context.Context, e iql.Expr) (iql.Value, []string, []string, error) {
	p.prefetch(ctx, e, "")
	sp, ctx := obs.StartSpan(ctx, obs.StageEval, "")
	s := p.newSession(ctx)
	s.warnings = make(map[string]bool)
	v, err := s.evaluator().Eval(e, nil)
	p.noteEval(s.stats, sp)
	sp.End(err)
	if err != nil {
		return iql.Value{}, nil, nil, err
	}
	warns := make([]string, 0, len(s.warnings))
	for w := range s.warnings {
		warns = append(warns, w)
	}
	sort.Strings(warns)
	return v, warns, s.deps(), nil
}

// EvalScoped evaluates an expression whose unqualified references
// resolve against the named source schema first.
func (p *Processor) EvalScoped(e iql.Expr, scope string) (iql.Value, error) {
	p.prefetch(nil, e, scope)
	s := p.newSession(nil, scope)
	v, err := s.evaluator().Eval(e, nil)
	p.noteEval(s.stats, nil)
	return v, err
}

// Query parses and evaluates IQL source text.
func (p *Processor) Query(src string) (iql.Value, error) {
	e, err := iql.Parse(src)
	if err != nil {
		return iql.Value{}, err
	}
	return p.Eval(e)
}

// Materialize computes the extent of every object in a schema,
// returning a map from scheme key to extent. Used to snapshot an
// integrated resource (e.g. to answer source queries in the reverse
// direction) and by the benchmark harness.
func (p *Processor) Materialize(s *hdm.Schema) (map[string]iql.Value, error) {
	out := make(map[string]iql.Value, s.Len())
	for _, o := range s.Objects() {
		v, err := p.Extent(o.Scheme.Parts())
		if err != nil {
			return nil, fmt.Errorf("query: materialising %s: %w", o.Scheme, err)
		}
		out[o.Scheme.Key()] = v
	}
	return out, nil
}

// Unfold returns the fully unfolded form of a query: every virtual
// scheme reference is syntactically replaced by the bag union of its
// derivations until only source-resident references remain. This is the
// classical GAV query-unfolding view of what Eval computes; it is
// exposed for inspection and testing. Scoping information is lost in
// the textual form, so Unfold is only exact when object names are
// globally unambiguous. Ident-induced cycles make the rewriting
// non-terminating in general, so unfolding stops after maxDepth rounds
// and reports an error if virtual references remain.
func (p *Processor) Unfold(e iql.Expr, maxDepth int) (iql.Expr, error) {
	cur := e
	for depth := 0; depth < maxDepth; depth++ {
		replaced := false
		cur = iql.SubstituteSchemes(cur, func(parts []string) (iql.Expr, bool) {
			key := strings.Join(parts, "|")
			p.mu.Lock()
			derivs, ok := p.defs[key]
			p.mu.Unlock()
			if !ok {
				return nil, false
			}
			replaced = true
			var out iql.Expr
			for _, d := range derivs {
				q := d.Query
				if lo, _, isRange := iql.IsRange(q); isRange {
					q = lo
				}
				if out == nil {
					out = q
				} else {
					out = &iql.Binary{Op: "++", L: out, R: q}
				}
			}
			if out == nil {
				out = &iql.BagExpr{}
			}
			return out, true
		})
		if !replaced {
			return cur, nil
		}
	}
	for _, parts := range iql.UniqueSchemeRefs(cur) {
		key := strings.Join(parts, "|")
		p.mu.Lock()
		_, stillVirtual := p.defs[key]
		p.mu.Unlock()
		if stillVirtual {
			return nil, fmt.Errorf("query: unfolding did not terminate within %d rounds (cyclic idents?)", maxDepth)
		}
	}
	return cur, nil
}
