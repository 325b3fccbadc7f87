package iql

import (
	"fmt"
	"testing"
)

// Tests for the per-qualifier generator scopes (compCtx.scope): every
// generator reuses one scope across entries, re-parented to the
// enclosing binding each time, so nested comprehensions, lets and
// shadowed variables must see exactly the bindings a fresh scope per
// entry would give them.

// sliceExtents serves named bags, optionally streamed as RowStreams.
type sliceExtents struct {
	bags   map[string][]Value
	stream bool
}

func (e sliceExtents) Extent(parts []string) (Value, error) {
	els, ok := e.bags[parts[0]]
	if !ok {
		return Value{}, fmt.Errorf("no extent %v", parts)
	}
	return BagOf(els), nil
}

func (e sliceExtents) ExtentStream(parts []string) (RowStream, bool, error) {
	if !e.stream {
		return nil, false, nil
	}
	els, ok := e.bags[parts[0]]
	if !ok {
		return nil, false, fmt.Errorf("no extent %v", parts)
	}
	return &sliceStream{els: els, i: -1}, true, nil
}

type sliceStream struct {
	els []Value
	i   int
}

func (s *sliceStream) Next() bool   { s.i++; return s.i < len(s.els) }
func (s *sliceStream) Row() Value   { return s.els[s.i] }
func (s *sliceStream) Err() error   { return nil }
func (s *sliceStream) Close() error { return nil }

func TestReusedScopes(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"nested comprehension in a generator source",
			"[{x, y} | x <- [1, 2]; y <- [x * 10 + z | z <- [1, 2]]]",
			"[{1, 11}, {1, 12}, {2, 21}, {2, 22}]"},
		{"nested comprehension in a filter",
			"[x | x <- [1, 2, 3]; count([w | w <- [2, 3, 3, 3]; w = x]) = x - 1]",
			"[1, 2]"},
		{"nested comprehension in the head",
			"[{x, [{x, y} | y <- [x, x + 1]]} | x <- [1, 2]]",
			"[{1, [{1, 1}, {1, 2}]}, {2, [{2, 2}, {2, 3}]}]"},
		{"comprehension re-entered per element of two enclosing generators",
			"[[x + y + z | z <- [100]] | x <- [1, 2]; y <- [10, 20]]",
			"[[111], [121], [112], [122]]"},
		{"let inside a generator",
			"[{x, y} | x <- [1, 2]; y <- [let z = x + w in z * 2 | w <- [10, 20]]]",
			"[{1, 22}, {1, 42}, {2, 24}, {2, 44}]"},
		{"let in the head over a nested generator",
			"[let s = x + y in {x, y, s} | x <- [1, 2]; y <- [x, 5]]",
			"[{1, 1, 2}, {1, 5, 6}, {2, 2, 4}, {2, 5, 7}]"},
		{"same variable bound at two generator levels",
			"[x | x <- [1, 2]; x <- [x * 10, x * 100]]",
			"[10, 100, 20, 200]"},
		{"shadowing inside a nested comprehension",
			"[{x, [x | x <- [x + 1, x + 2]], x} | x <- [1, 2]]",
			"[{1, [2, 3], 1}, {2, [3, 4], 2}]"},
		{"comprehension under a let, re-entered with a fresh env",
			"[let a = x * 10 in [a + z | z <- [1, 2]] | x <- [1, 2]]",
			"[[11, 12], [21, 22]]"},
		{"join probe reads the enclosing scope",
			"[{a, c} | {a, b} <- <<ab>>; {b2, c} <- <<bc>>; b2 = b]",
			"[{1, 'p'}, {1, 'q'}, {2, 'r'}]"},
	}
	ext := sliceExtents{bags: map[string][]Value{
		"ab": {Tuple(Int(1), Int(10)), Tuple(Int(2), Int(20))},
		"bc": {Tuple(Int(10), Str("p")), Tuple(Int(10), Str("q")), Tuple(Int(20), Str("r"))},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			// The second evaluation reuses the first one's cached
			// contexts, and with them the scopes.
			ev := NewEvaluator(ext)
			for run := 0; run < 2; run++ {
				v, err := ev.Eval(e, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := v.String(); got != tc.want {
					t.Fatalf("run %d: %s = %s, want %s", run, tc.src, got, tc.want)
				}
			}
		})
	}
}

func TestReusedScopesFollowTheCallersEnv(t *testing.T) {
	// The cached contexts outlive one Eval: a later Eval under another
	// env must see that env, not the first one.
	e, err := Parse("[{n, y} | y <- [n, n + 1]]")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(NoExtents)
	for _, n := range []int64{1, 5} {
		env := NewEnv()
		env.Bind("n", Int(n))
		v, err := ev.Eval(e, env)
		if err != nil {
			t.Fatal(err)
		}
		if want := Bag(Tuple(Int(n), Int(n)), Tuple(Int(n), Int(n+1))); v.String() != want.String() {
			t.Fatalf("n=%d: %s, want %s", n, v, want)
		}
	}
}

func TestReusedScopesAfterStreamedGenerator(t *testing.T) {
	// The streamed outer generator binds into its own reused scope; the
	// nested generators after it must see each streamed row.
	bags := map[string][]Value{
		"k": {Tuple(Int(1), Str("a")), Tuple(Int(2), Str("b")), Tuple(Int(3), Str("c"))},
	}
	src := "[{k, v, y, n} | {k, v} <- <<k>>; y <- [k * 10, k * 20]; n <- [count([z | z <- [1, 2, 3]; z <= k])]]"
	e, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	var wantSteps int
	for _, stream := range []bool{false, true} {
		ev := NewEvaluator(sliceExtents{bags: bags, stream: stream})
		v, err := ev.Eval(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stream {
			want, wantSteps = v.String(), ev.Steps()
			if want != "[{1, 'a', 10, 1}, {1, 'a', 20, 1}, {2, 'b', 20, 2}, {2, 'b', 40, 2}, {3, 'c', 30, 3}, {3, 'c', 60, 3}]" {
				t.Fatalf("materialised: %s", want)
			}
			continue
		}
		if got := v.String(); got != want || ev.Steps() != wantSteps {
			t.Fatalf("streamed: %s in %d steps, materialised %s in %d", got, ev.Steps(), want, wantSteps)
		}
	}
}

// TestJoinAllocsPerRow guards the per-row allocation count of a
// Q7-shaped four-way equi-join: only the head tuple is allocated per
// row, so neither scopes nor their bindings are allocated per entry
// into the inner generators.
func TestJoinAllocsPerRow(t *testing.T) {
	const n = 1000
	bags := map[string][]Value{}
	for _, name := range []string{"a", "b", "c", "d"} {
		els := make([]Value, n)
		for i := range els {
			els[i] = Tuple(Int(int64(i)), Str(fmt.Sprintf("%s%d", name, i)))
		}
		bags[name] = els
	}
	e, err := Parse("[{pk, t, mz, i} | {k, pk} <- <<a>>; {k2, t} <- <<b>>; k2 = k; " +
		"{k3, mz} <- <<c>>; k3 = k; {k4, i} <- <<d>>; k4 = k]")
	if err != nil {
		t.Fatal(err)
	}
	ext := sliceExtents{bags: bags}
	idx := NewJoinIndexCache(0)
	eval := func() {
		// A fresh evaluator per run, as each query gets one; the join
		// indexes are shared, as across a session's queries.
		ev := &Evaluator{Ext: ext, Indexes: idx}
		v, err := ev.Eval(e, nil)
		if err != nil || v.Len() != n {
			t.Fatalf("join: %d rows, %v", v.Len(), err)
		}
	}
	eval()
	allocs := testing.AllocsPerRun(5, eval)
	t.Logf("%.0f allocations for %d rows", allocs, n)
	if allocs > 2*n+100 {
		t.Fatalf("%.0f allocations for a %d-row join, want at most %d", allocs, n, 2*n+100)
	}
}
