package iql

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
)

// Extents supplies the extent (a bag) of a schema object referenced by
// scheme parts. Implementations include data-source wrappers and the
// query processor's virtual-schema resolver.
type Extents interface {
	Extent(parts []string) (Value, error)
}

// ExtentsFunc adapts a function to the Extents interface.
type ExtentsFunc func(parts []string) (Value, error)

// Extent implements Extents.
func (f ExtentsFunc) Extent(parts []string) (Value, error) { return f(parts) }

// NoExtents is an Extents that knows no schema objects; evaluating a
// SchemeRef against it fails.
var NoExtents Extents = ExtentsFunc(func(parts []string) (Value, error) {
	return Value{}, fmt.Errorf("iql: no extent source for <<%s>>", strings.Join(parts, ", "))
})

// Env is a lexically scoped variable environment. Scopes bind very few
// variables (a generator pattern's worth), so bindings live in parallel
// inline slices: Bind never allocates a map, Lookup is a short linear
// scan, and a scope can be reset and reused across the iterations of a
// generator without reallocating.
type Env struct {
	names  []string
	vals   []Value
	parent *Env
}

// NewEnv returns an empty top-level environment.
func NewEnv() *Env { return &Env{} }

// Child returns a new scope nested in e. Binding storage is allocated
// lazily on first Bind, keeping non-binding scopes cheap.
func (e *Env) Child() *Env { return &Env{parent: e} }

// Bind sets a variable in the current scope, overwriting an existing
// same-scope binding.
func (e *Env) Bind(name string, v Value) {
	for i, n := range e.names {
		if n == name {
			e.vals[i] = v
			return
		}
	}
	e.names = append(e.names, name)
	e.vals = append(e.vals, v)
}

// Lookup finds a variable in the current or any enclosing scope.
func (e *Env) Lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		for i, n := range s.names {
			if n == name {
				return s.vals[i], true
			}
		}
	}
	return Value{}, false
}

// resetBindings drops the scope's bindings but keeps their storage, so
// the evaluator can reuse one scope across all iterations of a
// generator, and every entry into it (see compCtx.scope), instead of
// allocating a scope (and its bindings) per element.
func (e *Env) resetBindings() {
	e.names = e.names[:0]
	e.vals = e.vals[:0]
}

// StepBudget is an evaluation step counter shared by several
// Evaluators, so that one logical query keeps a single budget across
// every sub-evaluation it spawns (e.g. the query processor unfolding
// each view definition with its own Evaluator, or the sharded
// comprehension path fanning one evaluation across workers). The
// counter is atomic, so one budget may be shared across the workers of
// a parallel evaluation; one logical query still draws from a single
// pool.
type StepBudget struct {
	// Max bounds the total steps; 0 means unlimited.
	Max  int
	used atomic.Int64
}

// Used returns the steps consumed so far.
func (b *StepBudget) Used() int { return int(b.used.Load()) }

func (b *StepBudget) take() error {
	u := b.used.Add(1)
	if b.Max > 0 && u > int64(b.Max) {
		return fmt.Errorf("iql: evaluation exceeded %d steps", b.Max)
	}
	return nil
}

// addSteps charges n already-performed steps to the budget in one
// atomic update; the sharded evaluation path uses it to flush a
// worker's locally-counted steps when the budget is unlimited (exact
// per-step accounting would serialise workers on the shared counter
// for no enforcement benefit).
func (b *StepBudget) addSteps(n int) {
	if n > 0 {
		b.used.Add(int64(n))
	}
}

// Evaluator evaluates IQL expressions against an extent source. The
// zero-value MaxSteps disables the step limit.
type Evaluator struct {
	// Ext resolves scheme references. If nil, NoExtents is used.
	Ext Extents
	// MaxSteps bounds the number of evaluation steps as a defence
	// against runaway comprehensions; 0 means unlimited. Ignored when
	// Budget is set.
	MaxSteps int
	// Budget, when non-nil, is a step budget shared with other
	// evaluators of the same logical query; it takes precedence over
	// MaxSteps and is NOT reset by Eval.
	Budget *StepBudget
	// Ctx, when non-nil, is polled during evaluation so that long
	// evaluations honour per-request timeouts and cancellation.
	Ctx context.Context
	// Indexes, when non-nil, caches built hash-join indexes across
	// evaluations keyed by source-extent identity, so re-evaluating a
	// join over an unchanged (memoised) extent skips the index build.
	// Share one cache across evaluators over the same extent store.
	Indexes *JoinIndexCache
	// Parallel, when > 1, enables sharded evaluation of large
	// generator scans: the elements are split into contiguous shards
	// evaluated by up to Parallel workers and merged back in shard
	// order, so results are identical to serial evaluation. <= 1 keeps
	// every comprehension on the calling goroutine.
	Parallel int
	// MinShardRows is the smallest generator source that may be
	// sharded; 0 uses DefaultMinShardRows. Smaller scans stay serial:
	// worker handoff would cost more than it buys.
	MinShardRows int
	// Stats, when non-nil, collects sharding telemetry (one ShardStat
	// per sharded generator scan) for tracing and metrics.
	Stats *EvalStats

	steps int
	// genDepth counts the generator loops currently running on this
	// evaluator. Sharding is only attempted at depth zero: a
	// comprehension re-entered once per element of an enclosing
	// generator must not pay a worker-pool spin-up per element.
	genDepth int
	// plans caches per-Comp static analysis and reusable evaluation
	// state (see compCtxFor); keyed by AST node identity, so it stays
	// valid for as long as the expression trees it has seen do.
	plans map[*Comp]*compCtx
}

// NewEvaluator returns an evaluator over the given extent source, with
// a private join-index cache (extents are immutable, so reusing an
// index for an unchanged element array is always sound).
func NewEvaluator(ext Extents) *Evaluator {
	return &Evaluator{Ext: ext, Indexes: NewJoinIndexCache(0)}
}

// Eval evaluates an expression in an environment (nil for empty).
func (ev *Evaluator) Eval(e Expr, env *Env) (Value, error) {
	if env == nil {
		env = NewEnv()
	}
	ev.steps = 0
	if ev.Ctx != nil {
		if err := ev.Ctx.Err(); err != nil {
			return Value{}, fmt.Errorf("iql: evaluation cancelled: %w", err)
		}
	}
	return ev.eval(e, env)
}

// EvalString parses and evaluates IQL source text.
func (ev *Evaluator) EvalString(src string) (Value, error) {
	e, err := Parse(src)
	if err != nil {
		return Value{}, err
	}
	return ev.Eval(e, nil)
}

// Steps returns the evaluation steps charged by the most recent Eval,
// including steps run by sharded workers. When Budget is set, the
// budget's Used count is authoritative instead.
func (ev *Evaluator) Steps() int { return ev.steps }

// ctxCheckInterval is how many evaluation steps pass between context
// polls; a power of two so the check compiles to a mask.
const ctxCheckInterval = 1024

func (ev *Evaluator) step() error {
	ev.steps++
	if ev.Budget != nil {
		if err := ev.Budget.take(); err != nil {
			return err
		}
	} else if ev.MaxSteps > 0 && ev.steps > ev.MaxSteps {
		return fmt.Errorf("iql: evaluation exceeded %d steps", ev.MaxSteps)
	}
	if ev.Ctx != nil && ev.steps&(ctxCheckInterval-1) == 0 {
		if err := ev.Ctx.Err(); err != nil {
			return fmt.Errorf("iql: evaluation cancelled: %w", err)
		}
	}
	return nil
}

func (ev *Evaluator) eval(e Expr, env *Env) (Value, error) {
	if err := ev.step(); err != nil {
		return Value{}, err
	}
	switch n := e.(type) {
	case *Lit:
		return n.Val, nil

	case *Var:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return Value{}, fmt.Errorf("iql: unbound variable %q", n.Name)
		}
		return v, nil

	case *SchemeRef:
		ext := ev.Ext
		if ext == nil {
			ext = NoExtents
		}
		return ext.Extent(n.Parts)

	case *TupleExpr:
		items := make([]Value, len(n.Elems))
		for i, x := range n.Elems {
			v, err := ev.eval(x, env)
			if err != nil {
				return Value{}, err
			}
			items[i] = v
		}
		return Tuple(items...), nil

	case *BagExpr:
		items := make([]Value, len(n.Elems))
		for i, x := range n.Elems {
			v, err := ev.eval(x, env)
			if err != nil {
				return Value{}, err
			}
			items[i] = v
		}
		return BagOf(items), nil

	case *Comp:
		return ev.evalComp(n, env)

	case *Binary:
		return ev.evalBinary(n, env)

	case *Unary:
		x, err := ev.eval(n.X, env)
		if err != nil {
			return Value{}, err
		}
		switch n.Op {
		case "-":
			switch x.Kind {
			case KindInt:
				return Int(-x.I), nil
			case KindFloat:
				return Float(-x.F), nil
			}
			return Value{}, fmt.Errorf("iql: unary '-' needs a number, got %s", x.Kind)
		case "not":
			if x.Kind != KindBool {
				return Value{}, fmt.Errorf("iql: 'not' needs a boolean, got %s", x.Kind)
			}
			return Bool(!x.B), nil
		}
		return Value{}, fmt.Errorf("iql: unknown unary operator %q", n.Op)

	case *Call:
		return ev.evalCall(n, env)

	case *RangeExpr:
		// Evaluating a Range yields its lower bound: the certain
		// answers. Void lowers evaluate to the empty bag.
		lo, err := ev.eval(n.Lo, env)
		if err != nil {
			return Value{}, err
		}
		if lo.Kind == KindVoid {
			return Bag(), nil
		}
		return lo, nil

	case *IfExpr:
		c, err := ev.eval(n.Cond, env)
		if err != nil {
			return Value{}, err
		}
		if c.Kind != KindBool {
			return Value{}, fmt.Errorf("iql: 'if' condition must be boolean, got %s", c.Kind)
		}
		if c.B {
			return ev.eval(n.Then, env)
		}
		return ev.eval(n.Else, env)

	case *LetExpr:
		v, err := ev.eval(n.Val, env)
		if err != nil {
			return Value{}, err
		}
		child := env.Child()
		child.Bind(n.Name, v)
		return ev.eval(n.Body, child)
	}
	return Value{}, fmt.Errorf("iql: cannot evaluate %T", e)
}

// evalComp evaluates a comprehension through a context that memoises
// constant generator sources and hash-indexes equi-join filters (see
// opt.go), keeping multi-generator joins near-linear. Contexts are
// cached per Comp node, so a nested comprehension re-entered once per
// enclosing binding pays its analysis and allocations once.
func (ev *Evaluator) evalComp(c *Comp, env *Env) (Value, error) {
	ctx := ev.compCtxFor(c)
	defer ctx.release()
	var out []Value
	if err := ctx.run(0, env, &out); err != nil {
		return Value{}, err
	}
	return BagOf(out), nil
}

// bindPattern attempts to bind a pattern to a value, reporting whether
// it matched. Arity mismatches on tuple patterns are a non-match rather
// than an error, so heterogeneous bags can be filtered by shape.
func bindPattern(p Pattern, v Value, env *Env) (bool, error) {
	switch pat := p.(type) {
	case *VarPat:
		if pat.Name != "_" {
			env.Bind(pat.Name, v)
		}
		return true, nil
	case *LitPat:
		return pat.Val.Equal(v), nil
	case *TuplePat:
		if v.Kind != KindTuple || len(v.Items) != len(pat.Elems) {
			return false, nil
		}
		for i, sub := range pat.Elems {
			ok, err := bindPattern(sub, v.Items[i], env)
			if err != nil || !ok {
				return ok, err
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("iql: unknown pattern %T", p)
}

func (ev *Evaluator) evalBinary(n *Binary, env *Env) (Value, error) {
	// Short-circuit boolean operators.
	if n.Op == "and" || n.Op == "or" {
		l, err := ev.eval(n.L, env)
		if err != nil {
			return Value{}, err
		}
		if l.Kind != KindBool {
			return Value{}, fmt.Errorf("iql: %q needs booleans, got %s", n.Op, l.Kind)
		}
		if n.Op == "and" && !l.B {
			return Bool(false), nil
		}
		if n.Op == "or" && l.B {
			return Bool(true), nil
		}
		r, err := ev.eval(n.R, env)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != KindBool {
			return Value{}, fmt.Errorf("iql: %q needs booleans, got %s", n.Op, r.Kind)
		}
		return r, nil
	}

	l, err := ev.eval(n.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := ev.eval(n.R, env)
	if err != nil {
		return Value{}, err
	}

	switch n.Op {
	case "=":
		return Bool(l.Equal(r)), nil
	case "<>":
		return Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		c, err := l.Compare(r)
		if err != nil {
			return Value{}, err
		}
		switch n.Op {
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "++":
		return Union(l, r)
	case "+", "-", "*", "/":
		return arith(n.Op, l, r)
	}
	return Value{}, fmt.Errorf("iql: unknown operator %q", n.Op)
}

func arith(op string, l, r Value) (Value, error) {
	if op == "+" && l.Kind == KindString && r.Kind == KindString {
		return Str(l.S + r.S), nil
	}
	numeric := func(v Value) bool { return v.Kind == KindInt || v.Kind == KindFloat }
	if !numeric(l) || !numeric(r) {
		return Value{}, fmt.Errorf("iql: %q needs numbers, got %s and %s", op, l.Kind, r.Kind)
	}
	if l.Kind == KindInt && r.Kind == KindInt && op != "/" {
		switch op {
		case "+":
			return Int(l.I + r.I), nil
		case "-":
			return Int(l.I - r.I), nil
		case "*":
			return Int(l.I * r.I), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return Float(a + b), nil
	case "-":
		return Float(a - b), nil
	case "*":
		return Float(a * b), nil
	case "/":
		if b == 0 {
			return Value{}, fmt.Errorf("iql: division by zero")
		}
		if l.Kind == KindInt && r.Kind == KindInt && l.I%r.I == 0 {
			return Int(l.I / r.I), nil
		}
		return Float(a / b), nil
	}
	return Value{}, fmt.Errorf("iql: unknown arithmetic operator %q", op)
}
