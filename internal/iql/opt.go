package iql

import (
	"fmt"
	"strconv"
)

// Comprehension evaluation with light query optimisation, in the spirit
// of the AutoMed query processor's optimisation phase (Jasper et al.).
// Two rewrites are applied, both strictly semantics-preserving:
//
//  1. Constant-source memoisation: a generator whose source expression
//     has no free variables (e.g. a scheme reference) is evaluated once
//     per comprehension invocation, not once per enclosing binding.
//
//  2. Equi-join indexing: a generator followed by consecutive filters
//     "v = e" (or "e = v"), where each v is bound by the generator's
//     pattern and each e depends only on variables bound by *earlier*
//     generators, is executed by probing a hash index on the composite
//     of the v components instead of scanning and filtering. The index
//     buckets by structural Hash and confirms with Equal — exactly the
//     '=' operator's semantics — so results are identical.
//
// The static analysis (which sources are constant, which filter runs
// are joinable) depends only on the AST, so it is computed once per
// *Comp node and cached on the Evaluator; nested comprehensions
// re-entered once per enclosing binding reuse their compCtx — including
// its qualifier-state slice, generator scopes and probe scratch buffer
// — instead of re-analysing and re-allocating every time.
type compCtx struct {
	ev   *Evaluator
	comp *Comp

	// quals holds per-qualifier state, static analysis and
	// per-invocation state together, in one allocation.
	quals []qualState

	// probeScratch holds the composite probe key components between a
	// probe's evaluation and its index lookup; Probe never retains the
	// key, so one buffer serves every probe of the invocation.
	probeScratch []Value

	// active guards the cached ctx against re-entrant use; a Comp node
	// cannot syntactically contain itself, so re-entry is impossible
	// today, but a fresh ctx is used if that ever changes.
	active bool

	// shared, set only on the workers of a sharded scan, holds the
	// constant generator sources of the qualifier tail, indexed like
	// quals: the first worker to reach one evaluates it for all, so
	// the scan evaluates (and charges) it once, as the serial loop
	// does (see parallel.go).
	shared []*sharedSource
}

// qualState is one qualifier's analysis results and evaluation state.
type qualState struct {
	// Static analysis, computed once per Comp node.
	constSrc bool       // source has no free variables
	joins    []joinCond // indexed equi-join conditions (empty = scan)
	consumed int        // following filters subsumed by the index
	joinSpec string     // join-key component positions (index cache key)

	// Per-invocation state, cleared by reset().
	srcSet bool
	srcVal Value // memoised source value (valid when srcSet)
	index  *ValueIndex

	// scope is the generator's child scope, reused every time the
	// generator is entered (see scope).
	scope Env
}

// joinCond pairs the tuple component of the generator-bound variable
// (wholeElement for a bare-variable pattern) with the probe expression.
type joinCond struct {
	comp  int
	probe Expr
}

const wholeElement = -1

// compCtxFor returns the (cached) evaluation context for a Comp node,
// analysing it on first sight and resetting per-invocation state on
// reuse.
func (ev *Evaluator) compCtxFor(c *Comp) *compCtx {
	if ctx, ok := ev.plans[c]; ok && !ctx.active {
		ctx.reset()
		ctx.active = true
		return ctx
	}
	ctx := newCompCtx(ev, c)
	ctx.active = true
	if _, ok := ev.plans[c]; !ok {
		if ev.plans == nil {
			ev.plans = make(map[*Comp]*compCtx)
		}
		ev.plans[c] = ctx
	}
	return ctx
}

func newCompCtx(ev *Evaluator, c *Comp) *compCtx {
	ctx := &compCtx{
		ev:    ev,
		comp:  c,
		quals: make([]qualState, len(c.Quals)),
	}
	ctx.analyze()
	return ctx
}

// reset clears per-invocation state (memoised sources and join
// indexes), keeping the static analysis and the allocated slices.
func (ctx *compCtx) reset() {
	for i := range ctx.quals {
		ctx.quals[i].srcSet = false
		ctx.quals[i].srcVal = Value{}
		ctx.quals[i].index = nil
	}
}

// release returns the ctx to its plan cache slot.
func (ctx *compCtx) release() { ctx.active = false }

// analyze marks constant sources and joinable generator/filter runs.
func (ctx *compCtx) analyze() {
	bound := map[string]bool{}
	for i, q := range ctx.comp.Quals {
		g, isGen := q.(*Generator)
		if !isGen {
			continue
		}
		qs := &ctx.quals[i]
		qs.constSrc = len(FreeVars(g.Src)) == 0
		if qs.constSrc {
			for j := i + 1; j < len(ctx.comp.Quals); j++ {
				cond, ok := joinableFilter(g, ctx.comp.Quals[j], bound)
				if !ok {
					break
				}
				qs.joins = append(qs.joins, cond)
				qs.consumed++
			}
			if len(qs.joins) > 0 {
				var spec []byte
				for n, jc := range qs.joins {
					if n > 0 {
						spec = append(spec, ',')
					}
					spec = strconv.AppendInt(spec, int64(jc.comp), 10)
				}
				qs.joinSpec = string(spec)
			}
		}
		bindPatternVars(g.Pat, bound)
	}
}

// joinableFilter recognises "v = e" / "e = v" following generator g,
// with v bound by g's pattern and e's free variables all bound before
// g.
func joinableFilter(g *Generator, next Qual, boundBefore map[string]bool) (joinCond, bool) {
	f, isFilter := next.(*Filter)
	if !isFilter {
		return joinCond{}, false
	}
	eq, isEq := f.Cond.(*Binary)
	if !isEq || eq.Op != "=" {
		return joinCond{}, false
	}
	// Which variables does the generator bind, and where?
	comp := func(name string) (int, bool) {
		if name == "_" {
			return 0, false
		}
		switch pat := g.Pat.(type) {
		case *VarPat:
			if pat.Name == name {
				return wholeElement, true
			}
		case *TuplePat:
			for i, pe := range pat.Elems {
				if vp, ok := pe.(*VarPat); ok && vp.Name == name {
					return i, true
				}
			}
		}
		return 0, false
	}
	try := func(varSide, exprSide Expr) (joinCond, bool) {
		v, isVar := varSide.(*Var)
		if !isVar {
			return joinCond{}, false
		}
		ci, ok := comp(v.Name)
		if !ok {
			return joinCond{}, false
		}
		for _, fv := range FreeVars(exprSide) {
			if !boundBefore[fv] {
				return joinCond{}, false
			}
		}
		return joinCond{comp: ci, probe: exprSide}, true
	}
	if c, ok := try(eq.L, eq.R); ok {
		return c, true
	}
	if c, ok := try(eq.R, eq.L); ok {
		return c, true
	}
	return joinCond{}, false
}

// source returns the generator's elements, memoised for constant
// sources.
func (ctx *compCtx) source(i int, g *Generator, env *Env) ([]Value, error) {
	qs := &ctx.quals[i]
	if qs.constSrc && qs.srcSet {
		return qs.srcVal.Elements()
	}
	var v Value
	var err error
	if ctx.shared != nil && ctx.shared[i] != nil {
		sh := ctx.shared[i]
		sh.once.Do(func() { sh.val, sh.err = ctx.ev.eval(g.Src, env) })
		v, err = sh.val, sh.err
	} else {
		v, err = ctx.ev.eval(g.Src, env)
	}
	if err != nil {
		return nil, err
	}
	if _, err := v.Elements(); err != nil {
		return nil, fmt.Errorf("iql: generator source %s: %w", g.Src, err)
	}
	if qs.constSrc {
		qs.srcVal = v
		qs.srcSet = true
	}
	return v.Elements()
}

// joinComponent extracts one composite-key component of an element;
// ok=false when the element's shape cannot satisfy the pattern.
func joinComponent(jc joinCond, el Value) (Value, bool) {
	if jc.comp == wholeElement {
		return el, true
	}
	if el.Kind != KindTuple || jc.comp >= len(el.Items) {
		return Value{}, false
	}
	return el.Items[jc.comp], true
}

// joinIndexCacheMin is the source size below which indexes are rebuilt
// rather than cached across evaluations (tiny builds are cheaper than
// occupying a cache slot).
const joinIndexCacheMin = 32

// buildIndex returns the hash index of the generator's elements on the
// composite join key, consulting the evaluator's cross-evaluation
// index cache for large memoised sources: the element array's identity
// plus the component spec fully determine the index, so an unchanged
// extent is indexed once, not once per evaluation.
func (ctx *compCtx) buildIndex(i int, els []Value) *ValueIndex {
	qs := &ctx.quals[i]
	if qs.index != nil {
		return qs.index
	}
	if c := ctx.ev.Indexes; c != nil && len(els) >= joinIndexCacheMin {
		key := joinIndexKey{data: &els[0], n: len(els), spec: qs.joinSpec}
		if idx, ok := c.get(key); ok {
			qs.index = idx
			return idx
		}
		idx := ctx.buildIndexRaw(i, els)
		// The index (and its identity key) keeps the extent rows alive,
		// so charge the cache their footprint plus index overhead.
		cost := int64(len(els)) * 48
		for _, el := range els {
			cost += el.Footprint()
		}
		c.put(key, idx, cost)
		return idx
	}
	return ctx.buildIndexRaw(i, els)
}

// buildIndexRaw hashes the generator's elements on the composite join
// key. A single-condition key is the component value itself;
// multi-condition keys are tuples whose Items slices are carved out of
// one shared backing array, so the build costs O(1) allocations beyond
// the index.
func (ctx *compCtx) buildIndexRaw(i int, els []Value) *ValueIndex {
	qs := &ctx.quals[i]
	jcs := qs.joins
	idx := NewValueIndex(len(els))
	var backing []Value
	if len(jcs) > 1 {
		backing = make([]Value, 0, len(jcs)*len(els))
	}
	for _, el := range els {
		var key Value
		if len(jcs) == 1 {
			k, ok := joinComponent(jcs[0], el)
			if !ok {
				continue // shape mismatch: pattern would not bind anyway
			}
			key = k
		} else {
			start := len(backing)
			ok := true
			for _, jc := range jcs {
				c, okc := joinComponent(jc, el)
				if !okc {
					ok = false
					break
				}
				backing = append(backing, c)
			}
			if !ok {
				backing = backing[:start]
				continue
			}
			key = Value{Kind: KindTuple, Items: backing[start:len(backing):len(backing)]}
		}
		idx.Add(key, el)
	}
	qs.index = idx
	return idx
}

// probeKey evaluates generator i's probe expressions into the shared
// scratch buffer and returns the composite probe key. The key aliases
// the scratch, which is safe because ValueIndex.Probe never retains it.
func (ctx *compCtx) probeKey(i int, env *Env) (Value, error) {
	jcs := ctx.quals[i].joins
	if cap(ctx.probeScratch) < len(jcs) {
		ctx.probeScratch = make([]Value, len(jcs))
	}
	scratch := ctx.probeScratch[:len(jcs)]
	for n, jc := range jcs {
		v, err := ctx.ev.eval(jc.probe, env)
		if err != nil {
			return Value{}, err
		}
		scratch[n] = v
	}
	if len(jcs) == 1 {
		return scratch[0], nil
	}
	return Value{Kind: KindTuple, Items: scratch}, nil
}

// scope returns generator i's reusable child scope, re-parented to env
// (runElement resets its bindings per element). A generator is entered
// once per binding of the qualifiers before it, so a fresh scope per
// entry would cost an allocation (plus its binding storage) per outer
// element. Reuse is safe because a compCtx is never re-entered while
// active, generator i is entered only from an earlier generator's scope
// or the comprehension's env (never from its own), and nothing retains
// a scope once run returns: IQL has no closures. Sharded workers own
// their compCtx, so their scopes are private.
func (ctx *compCtx) scope(i int, env *Env) *Env {
	s := &ctx.quals[i].scope
	s.parent = env
	return s
}

// outPrealloc caps how far a generator source's length is trusted as a
// size hint for the output slice.
const outPrealloc = 1024

// run evaluates qualifiers from position i under env, appending head
// values for complete bindings.
func (ctx *compCtx) run(i int, env *Env, out *[]Value) error {
	ev := ctx.ev
	if i == len(ctx.comp.Quals) {
		v, err := ev.eval(ctx.comp.Head, env)
		if err != nil {
			return err
		}
		*out = append(*out, v)
		return nil
	}
	switch q := ctx.comp.Quals[i].(type) {
	case *Filter:
		c, err := ev.eval(q.Cond, env)
		if err != nil {
			return err
		}
		if c.Kind != KindBool {
			return fmt.Errorf("iql: filter must be boolean, got %s (%s)", c.Kind, q.Cond)
		}
		if !c.B {
			return nil
		}
		return ctx.run(i+1, env, out)

	case *Generator:
		if rs, ok, err := ctx.stream(i, q); err != nil {
			return err
		} else if ok {
			return ctx.runStream(q, rs, i, env, out)
		}
		els, err := ctx.source(i, q, env)
		if err != nil {
			return err
		}
		next := i + 1
		var joinedFirst Value
		joined := false
		if len(ctx.quals[i].joins) > 0 {
			// Indexed equi-join: probe instead of scan; the consumed
			// filters are subsumed by the index lookup.
			idx := ctx.buildIndex(i, els)
			key, err := ctx.probeKey(i, env)
			if err != nil {
				return err
			}
			next = i + 1 + ctx.quals[i].consumed
			first, rest, ok := idx.Probe(key)
			if !ok {
				return nil
			}
			joinedFirst, joined = first, true
			els = rest
		}
		if !joined && ctx.shardable(len(els)) {
			// Large top-level scan: fan the elements across a worker
			// pool in contiguous shards, merged back in shard order
			// (see parallel.go). Results are byte-identical to the
			// serial loop below.
			return ctx.runSharded(q, els, next, env, out)
		}
		if cap(*out) == 0 && len(els) > 0 {
			// First growth: trust the generator's cardinality as a size
			// hint so comprehension outputs don't grow append-by-append.
			hint := len(els)
			if hint > outPrealloc {
				hint = outPrealloc
			}
			*out = make([]Value, 0, hint)
		}
		// One child scope serves every iteration (bindings are reset
		// per element) and every entry into this generator.
		child := ctx.scope(i, env)
		ev.genDepth++
		if joined {
			if err := ctx.runElement(q, joinedFirst, next, child, out); err != nil {
				ev.genDepth--
				return err
			}
		}
		for _, el := range els {
			if err := ctx.runElement(q, el, next, child, out); err != nil {
				ev.genDepth--
				return err
			}
		}
		ev.genDepth--
		return nil
	}
	return fmt.Errorf("iql: unknown qualifier %T", ctx.comp.Quals[i])
}

// stream decides whether generator i can pull its source as a
// RowStream instead of materialising it. Only a top-level
// (genDepth 0) scan of a bare scheme reference qualifies: joins need
// the whole extent for their index, memoised sources are already
// materialised, and nested generators re-run per enclosing binding,
// where re-streaming would multiply backend fetches. The extent
// provider has the final say via ExtentStream's ok result.
func (ctx *compCtx) stream(i int, g *Generator) (RowStream, bool, error) {
	ev := ctx.ev
	qs := &ctx.quals[i]
	if ev.genDepth != 0 || len(qs.joins) > 0 || qs.srcSet {
		return nil, false, nil
	}
	ref, ok := g.Src.(*SchemeRef)
	if !ok {
		return nil, false, nil
	}
	se, ok := ev.Ext.(StreamExtents)
	if !ok {
		return nil, false, nil
	}
	rs, ok, err := se.ExtentStream(ref.Parts)
	if err != nil || !ok {
		return nil, false, err
	}
	// The materialised path charges one step evaluating the scheme
	// reference; charge the same here so step budgets are path-
	// independent.
	if err := ev.step(); err != nil {
		rs.Close()
		return nil, false, err
	}
	return rs, true, nil
}

// runStream drives one streamed generator: rows are pulled, bound and
// evaluated exactly as the materialised loop in run does, so results
// are byte-identical; only the residency differs. Sharding never
// applies (the row count is unknown up front), and the stream is
// always closed, including on early error returns.
func (ctx *compCtx) runStream(q *Generator, rs RowStream, i int, env *Env, out *[]Value) (err error) {
	defer func() {
		if cerr := rs.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ev := ctx.ev
	child := ctx.scope(i, env)
	ev.genDepth++
	defer func() { ev.genDepth-- }()
	for rs.Next() {
		if err := ctx.runElement(q, rs.Row(), i+1, child, out); err != nil {
			return err
		}
	}
	if serr := rs.Err(); serr != nil {
		return fmt.Errorf("iql: generator source %s: %w", q.Src, serr)
	}
	return nil
}

// runElement binds one generator element into the reused child scope
// and continues evaluation from qualifier next.
func (ctx *compCtx) runElement(q *Generator, el Value, next int, child *Env, out *[]Value) error {
	if err := ctx.ev.step(); err != nil {
		return err
	}
	child.resetBindings()
	ok, err := bindPattern(q.Pat, el, child)
	if err != nil {
		return err
	}
	if !ok {
		return nil // non-matching elements are skipped
	}
	return ctx.run(next, child, out)
}
