package query

import (
	"context"
	"strings"
	"sync"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
)

// Concurrent extent prefetch. A multi-generator comprehension over the
// integrated schema unfolds onto several data source extents; fetching
// them one by one during evaluation serialises the wrappers' latencies.
// Before evaluating a query, the processor statically collects the
// scheme references the comprehension will enumerate — generator
// sources, aggregate/member arguments, union operands — expands those
// that name virtual objects one definition level at a time (skipping
// anything already memoised), and warms the source-extent cache for the
// distinct source objects concurrently. The fetches go through the
// cache's singleflight GetOrCompute, so a prefetch in flight coalesces
// with the evaluation that needs it (and with concurrent queries)
// instead of duplicating wrapper work.
//
// Each fetch is an ordinary source read (read.go), so prefetch obeys
// the source's circuit breaker and per-source deadline and keeps the
// last-good copy like any other read. Prefetch is advisory: errors are
// swallowed (the serial evaluation path re-reads and surfaces them
// with full context, degrading to stale extents where breakers allow),
// the walk is bounded, and cancellation of the request context stops
// scheduling.

const (
	// DefaultPrefetchWorkers bounds concurrent wrapper fetches per
	// query when Processor.PrefetchWorkers is unset.
	DefaultPrefetchWorkers = 8
	// DefaultPrefetchMaxTasks bounds how many distinct source extents
	// one query's prefetch may schedule when Processor.PrefetchMaxTasks
	// is unset.
	DefaultPrefetchMaxTasks = 64
	// prefetchMaxDepth bounds the virtual-definition expansion depth.
	prefetchMaxDepth = 4
)

// prefetchWorkerCount resolves the effective prefetch pool width.
func (p *Processor) prefetchWorkerCount() int {
	if p.PrefetchWorkers > 0 {
		return p.PrefetchWorkers
	}
	return DefaultPrefetchWorkers
}

// prefetchTaskCap resolves the effective per-query task budget.
func (p *Processor) prefetchTaskCap() int {
	if p.PrefetchMaxTasks > 0 {
		return p.PrefetchMaxTasks
	}
	return DefaultPrefetchMaxTasks
}

// prefetchTask names one source object to warm.
type prefetchTask struct {
	src source
	sc  hdm.Scheme
}

// prefetch warms the source-extent cache for the distinct, not yet
// cached source extents the expression will enumerate, fetching them
// concurrently. It blocks until the scheduled fetches finish (so the
// following serial evaluation hits the cache) and is a no-op when
// fewer than two extents need fetching.
func (p *Processor) prefetch(ctx context.Context, e iql.Expr, scope string) {
	if ctx != nil && ctx.Err() != nil {
		return
	}
	pf := prefetcher{p: p, taskCap: p.prefetchTaskCap()}
	pf.visitExpr(e, scope, 0)
	tasks := pf.tasks
	if len(tasks) < 2 {
		return // a single fetch gains nothing from concurrency
	}
	// The prefetch span parents the workers' fetch spans, so traces show
	// the parallel warm-up as one stage with overlapping children.
	sp, ctx := obs.StartSpan(ctx, obs.StagePrefetch, "")
	defer sp.End(nil)
	sem := make(chan struct{}, min(p.prefetchWorkerCount(), len(tasks)))
	var wg sync.WaitGroup
scheduling:
	for _, t := range tasks {
		if ctx == nil {
			sem <- struct{}{}
		} else {
			// Cancellable slot acquisition: a timed-out request must not
			// park behind slow in-flight fetches.
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				break scheduling
			}
		}
		wg.Add(1)
		go func(t prefetchTask) {
			defer wg.Done()
			defer func() { <-sem }()
			key := t.sc.Key()
			// Errors are not cached and not reported here: the serial
			// evaluation re-reads and wraps them with query context.
			_, _, _ = p.srcExt.GetOrCompute(t.src.name+"\x00"+key, []string{key}, func() (iql.Value, int64, error) {
				return p.fetchExtent(ctx, t.src, t.sc)
			})
		}(t)
	}
	if ctx == nil {
		wg.Wait()
		return
	}
	// Wait for the scheduled fetches (so the serial evaluation hits the
	// cache), but give up as soon as the request is cancelled: detached
	// workers only touch the cache, whose singleflight makes their
	// completion safe to abandon.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// prefetcher collects the distinct, not yet cached source extents an
// expression will enumerate. References are resolved the same way
// evaluation resolves them (scope first, then virtual definitions, then
// unambiguous global resolution); virtual references that are not
// memoised are expanded into their derivations' references, scoped per
// derivation, with cycles cut by a visited set. Bookkeeping maps are
// allocated lazily so a fully warm walk costs no allocations beyond
// the walk itself.
type prefetcher struct {
	p           *Processor
	taskCap     int
	tasks       []prefetchTask
	seenTask    map[string]bool
	seenVirtual map[string]bool
	// streamPos marks the next reference visited as a comprehension's
	// first generator source — the position the evaluator streams when
	// the source supports it (see stream.go). Warming such an extent
	// would pin it whole in the cache and defeat streaming's bounded
	// memory, so addSource skips it. The flag is consumed (cleared) by
	// whichever visit sees it first.
	streamPos bool
}

func (pf *prefetcher) addSource(src source, sc hdm.Scheme, streamPos bool) {
	if streamPos && src.streams && src.scan != nil && pf.p.effectiveScanBuffer() > 0 {
		// Evaluation will stream this scan (or materialise it itself if
		// it turns out small); warming it here would force the whole
		// extent resident.
		return
	}
	ck := src.name + "\x00" + sc.Key()
	if pf.seenTask[ck] || pf.p.srcExt.Peek(ck) {
		return
	}
	if pf.seenTask == nil {
		pf.seenTask = make(map[string]bool, 8)
	}
	pf.seenTask[ck] = true
	pf.tasks = append(pf.tasks, prefetchTask{src: src, sc: sc})
}

func (pf *prefetcher) visitRef(parts []string, scope string, depth int) {
	// Consume the stream-position mark: it applies to source
	// resolutions of this reference only, not to the derivation bodies
	// a virtual reference expands into (each body's own comprehension
	// re-marks its first generator below).
	streamPos := pf.streamPos
	pf.streamPos = false
	if depth > prefetchMaxDepth || len(pf.tasks) >= pf.taskCap {
		return
	}
	p := pf.p
	// 1. The current scope's source schema wins for unqualified
	// references (mirrors extentIn).
	if scope != "" {
		if src, sc, ok := p.resolveIn(scope, parts); ok {
			pf.addSource(src, sc, streamPos)
			return
		}
	}
	// 2. Virtual objects: expand their derivations unless the extent is
	// already memoised.
	key := strings.Join(parts, "|")
	p.mu.Lock()
	derivs, virtual := p.defs[key]
	p.mu.Unlock()
	if virtual {
		if pf.seenVirtual[key] || p.memo.Peek(key) {
			return
		}
		if pf.seenVirtual == nil {
			pf.seenVirtual = make(map[string]bool, 8)
		}
		pf.seenVirtual[key] = true
		// A sole full-extent bare-rename derivation keeps the stream
		// position: extentStream chases exactly this shape to the
		// underlying source, so warming that source here would put its
		// extent in the cache and defeat the stream.
		if streamPos && len(derivs) == 1 && !derivs[0].Lower {
			if _, bare := derivs[0].Query.(*iql.SchemeRef); bare {
				pf.streamPos = true
			}
		}
		for _, d := range derivs {
			pf.visitExpr(d.Query, d.Scope, depth+1)
		}
		return
	}
	// 3. Unambiguous global source resolution (ambiguous references
	// will fail evaluation; there is nothing useful to warm for them).
	if hits := p.resolveGlobal(parts); len(hits) == 1 {
		pf.addSource(hits[0].src, hits[0].sc, streamPos)
	}
}

// visitEnumerated dispatches an expression in enumerated position: a
// scheme reference is visited directly, anything else is walked.
func (pf *prefetcher) visitEnumerated(e iql.Expr, scope string, depth int) {
	if ref, ok := e.(*iql.SchemeRef); ok {
		pf.visitRef(ref.Parts, scope, depth)
		return
	}
	pf.streamPos = false // only a direct scheme reference can stream
	pf.visitExpr(e, scope, depth)
}

// visitExpr walks the scheme references the expression will enumerate
// when evaluated: generator sources of comprehensions (at any nesting
// depth), references passed to builtins, and the operands of bag
// union. References in other positions (e.g. a branch of an if) may
// never be evaluated, so they are not prefetched.
func (pf *prefetcher) visitExpr(e iql.Expr, scope string, depth int) {
	switch n := e.(type) {
	case nil:
		return
	case *iql.SchemeRef:
		// A bare reference at the top of a query (or of a derivation
		// body) is enumerated directly.
		pf.visitRef(n.Parts, scope, depth)
	case *iql.Comp:
		// The evaluator streams only a comprehension's first generator,
		// and only when the plan has no joins. Joins need a second
		// generator, so a sole generator is the statically-certain
		// stream position; multi-generator comprehensions are warmed as
		// before (their equi-joins materialise every source anyway, and
		// skipping the warm would serialise overlappable fetches).
		gens := 0
		for _, q := range n.Quals {
			if _, ok := q.(*iql.Generator); ok {
				gens++
			}
		}
		first := true
		for _, q := range n.Quals {
			switch qq := q.(type) {
			case *iql.Generator:
				if first && gens == 1 {
					pf.streamPos = true
				}
				first = false
				pf.visitEnumerated(qq.Src, scope, depth)
				pf.streamPos = false
			case *iql.Filter:
				pf.visitExpr(qq.Cond, scope, depth)
			}
		}
		pf.visitExpr(n.Head, scope, depth)
	case *iql.Call:
		for _, a := range n.Args {
			pf.visitEnumerated(a, scope, depth)
		}
	case *iql.Binary:
		if n.Op == "++" {
			pf.visitEnumerated(n.L, scope, depth)
			pf.visitEnumerated(n.R, scope, depth)
			return
		}
		pf.visitExpr(n.L, scope, depth)
		pf.visitExpr(n.R, scope, depth)
	case *iql.Unary:
		pf.visitExpr(n.X, scope, depth)
	case *iql.TupleExpr:
		for _, x := range n.Elems {
			pf.visitExpr(x, scope, depth)
		}
	case *iql.BagExpr:
		for _, x := range n.Elems {
			pf.visitExpr(x, scope, depth)
		}
	case *iql.RangeExpr:
		// Evaluating a Range yields its lower bound.
		pf.visitEnumerated(n.Lo, scope, depth)
	case *iql.LetExpr:
		pf.visitEnumerated(n.Val, scope, depth)
		pf.visitExpr(n.Body, scope, depth)
	case *iql.IfExpr:
		// Branch arms may never be evaluated: the evaluator fetches the
		// taken one on demand.
		pf.visitExpr(n.Cond, scope, depth)
	}
}
