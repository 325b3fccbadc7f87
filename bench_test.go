package automed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"github.com/dataspace/automed/internal/classical"
	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/match"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/transform"
)

// Benchmark harness for the paper's evaluation artefacts (see
// EXPERIMENTS.md): E1 = Table 1 queries, E2 = effort comparison,
// E3 = pay-as-you-go curve, F1-F4 = the construction figures, plus
// ablation micro-benchmarks for the substrates.

var (
	benchOnce sync.Once
	benchIG   *core.Integrator
	benchErr  error
)

// benchIntegrator builds the case-study integration once, reused by the
// query benchmarks (warm-path evaluation, as a deployed dataspace would
// run).
func benchIntegrator(b *testing.B) *core.Integrator {
	b.Helper()
	benchOnce.Do(func() {
		benchIG, benchErr = ispider.RunIntersection(ispider.BenchConfig(), false)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchIG
}

// BenchmarkTable1 runs each of the seven priority queries over the
// integrated global schema (E1). Sub-benchmarks are named by query id.
func BenchmarkTable1(b *testing.B) {
	ig := benchIntegrator(b)
	for _, q := range ispider.Table1Queries() {
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ig.Query(q.IQL)
				if err != nil {
					b.Fatal(err)
				}
				if res.Value.Kind == iql.KindBag && res.Value.Len() == 0 {
					b.Fatalf("%s returned no results", q.ID)
				}
			}
		})
	}
}

// BenchmarkTable1Parallel pairs the join-heavy Table 1 queries (Q4-Q7)
// run with sharded evaluation forced serial against the same queries
// with a worker pool as wide as GOMAXPROCS. Run with -cpu 1,8 (or
// GOMAXPROCS set) to see the scaling; on one core the sharded path
// degrades to the serial loop by design, so the pair stays near parity.
func BenchmarkTable1Parallel(b *testing.B) {
	ig := benchIntegrator(b)
	proc := ig.Processor()
	defer func(old int) { proc.Parallel = old }(proc.Parallel)
	for _, id := range []string{"Q4", "Q5", "Q6", "Q7"} {
		q, ok := ispider.QueryByID(id)
		if !ok {
			b.Fatalf("no query %s", id)
		}
		for _, mode := range []struct {
			name  string
			width int
		}{
			{"serial", 1},
			{"sharded", runtime.GOMAXPROCS(0)},
		} {
			b.Run(id+"/"+mode.name, func(b *testing.B) {
				proc.Parallel = mode.width
				for i := 0; i < b.N; i++ {
					if _, err := ig.Query(q.IQL); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAnswerRender isolates the render stage of a /query answer:
// for each Table 1 query, a precomputed answer is written as canonical
// JSON (bags in canonical order) and as IQL text into a reused buffer.
func BenchmarkAnswerRender(b *testing.B) {
	ig := benchIntegrator(b)
	for _, q := range ispider.Table1Queries() {
		res, err := ig.Query(q.IQL)
		if err != nil {
			b.Fatal(err)
		}
		var buf []byte
		b.Run(q.ID+"/json", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if buf, err = iql.AppendJSON(buf[:0], res.Value); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/text", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = res.Value.AppendText(buf[:0])
			}
		})
	}
}

// BenchmarkTable1Q1Cold re-answers Q1 with cold extent caches every
// iteration: the full GAV unfolding cost.
func BenchmarkTable1Q1Cold(b *testing.B) {
	ig := benchIntegrator(b)
	q, _ := ispider.QueryByID("Q1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ig.Processor().InvalidateCache()
		if _, err := ig.Query(q.IQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEffortIntersection builds the entire intersection-based
// integration from scratch (E2, intersection side: 26 manual steps and
// all tool-generated machinery).
func BenchmarkEffortIntersection(b *testing.B) {
	cfg := ispider.DefaultConfig()
	for i := 0; i < b.N; i++ {
		ig, err := ispider.RunIntersection(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if ig.Report().TotalManual() != 26 {
			b.Fatalf("manual = %d", ig.Report().TotalManual())
		}
	}
}

// BenchmarkEffortClassical builds the entire classical integration
// (E2, baseline side: 95 counted non-trivial steps).
func BenchmarkEffortClassical(b *testing.B) {
	cfg := ispider.DefaultConfig()
	for i := 0; i < b.N; i++ {
		cb, err := ispider.RunClassical(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cb.TotalNonTrivial() != 95 {
			b.Fatalf("non-trivial = %d", cb.TotalNonTrivial())
		}
	}
}

// BenchmarkPayAsYouGoCurve replays the plan step by step, probing query
// answerability after every iteration (E3).
func BenchmarkPayAsYouGoCurve(b *testing.B) {
	cfg := ispider.DefaultConfig()
	for i := 0; i < b.N; i++ {
		pedro, gpmdb, pepseeker, err := ispider.Wrappers(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ig, err := core.New(pedro, gpmdb, pepseeker)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ig.Federate("F"); err != nil {
			b.Fatal(err)
		}
		answerable := 0
		for _, step := range ispider.IntersectionPlan() {
			switch step.Kind {
			case "intersect":
				if _, err := ig.Intersect(step.Name, step.Mappings); err != nil {
					b.Fatal(err)
				}
			case "refine":
				if err := ig.Refine(step.Name, step.Refinement); err != nil {
					b.Fatal(err)
				}
			}
			for _, q := range ispider.Table1Queries() {
				if _, err := ig.Query(q.IQL); err == nil {
					answerable++
				}
			}
		}
		if answerable == 0 {
			b.Fatal("no queries became answerable")
		}
	}
}

// toySources builds the three bookstore-style sources used by the
// figure benchmarks.
func toySources(b *testing.B) []Wrapper {
	b.Helper()
	lib, err := NewSource("Library").
		Table("books", "id:int", "isbn", "title", "shelf").
		Insert("books", int64(1), "978-1", "Dataspaces", "A1").
		Insert("books", int64(2), "978-2", "Schema Matching", "A2").
		Wrap()
	if err != nil {
		b.Fatal(err)
	}
	shop, err := NewSource("Shop").
		Table("items", "sku", "barcode", "name", "price:float").
		Insert("items", "S1", "978-2", "Schema Matching", 30.0).
		Wrap()
	if err != nil {
		b.Fatal(err)
	}
	archive, err := NewSource("Archive").
		Table("scans", "scan_id:int", "format").
		Insert("scans", int64(9), "pdf").
		Wrap()
	if err != nil {
		b.Fatal(err)
	}
	return []Wrapper{lib, shop, archive}
}

var toyMappings = []Mapping{
	Entity("<<UBook>>",
		From("Library", "[{'LIB', k} | k <- <<books>>]"),
		From("Shop", "[{'SHOP', k} | k <- <<items>>]"),
	),
	Attribute("<<UBook, isbn>>",
		From("Library", "[{'LIB', k, x} | {k, x} <- <<books, isbn>>]"),
		From("Shop", "[{'SHOP', k, x} | {k, x} <- <<items, barcode>>]"),
	),
}

// BenchmarkFigure1UnionCompatible constructs the Fig. 1 topology:
// union-compatible schemas ident-merged into a global schema.
func BenchmarkFigure1UnionCompatible(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := toySources(b)
		cb, err := classical.New(ws...)
		if err != nil {
			b.Fatal(err)
		}
		err = cb.AddStage(classical.Stage{Name: "GS1", Concepts: []classical.Concept{
			{Object: "<<books>>", Identity: "Library",
				Mapped: []classical.MappedFrom{{Source: "Shop", Query: "[k | k <- <<items>>]", Counted: true}}},
			{Object: "<<books, isbn>>", Identity: "Library",
				Mapped: []classical.MappedFrom{{Source: "Shop", Query: "[{k, x} | {k, x} <- <<items, barcode>>]", Counted: true}}},
		}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cb.Merge("GS"); err != nil {
			b.Fatal(err)
		}
		if _, err := cb.Query("count(<<books>>)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2IntersectionSchema constructs a pairwise intersection
// schema in the canonical normal form (Fig. 2).
func BenchmarkFigure2IntersectionSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws := toySources(b)
		ig, err := core.New(ws...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ig.Federate("F"); err != nil {
			b.Fatal(err)
		}
		in, err := ig.Intersect("I1", toyMappings)
		if err != nil {
			b.Fatal(err)
		}
		for _, pw := range in.PathwayBySource {
			if err := pw.IsIntersectionForm(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure3Federation builds the federated schema of all
// sources (Fig. 3).
func BenchmarkFigure3Federation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ig, err := core.New(toySources(b)...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ig.Federate("F"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4GlobalSchema builds the global schema with redundancy
// dropping, G = I ∪ (ES1−I) ∪ (ES2−I) ∪ ES3 (Fig. 4).
func BenchmarkFigure4GlobalSchema(b *testing.B) {
	ws := toySources(b)
	ig, err := core.New(ws...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ig.Federate("F"); err != nil {
		b.Fatal(err)
	}
	if _, err := ig.Intersect("I1", toyMappings); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ig.BuildGlobal(true); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Substrate ablations ----

// BenchmarkIQLParse measures the IQL front end on a Table-1-sized
// query.
func BenchmarkIQLParse(b *testing.B) {
	q, _ := ispider.QueryByID("Q5")
	for i := 0; i < b.N; i++ {
		if _, err := iql.Parse(q.IQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIQLEval measures raw comprehension evaluation over in-memory
// extents (a 3-generator join).
func BenchmarkIQLEval(b *testing.B) {
	n := 200
	pairs := make([]iql.Value, n)
	for i := range pairs {
		pairs[i] = iql.Tuple(iql.Int(int64(i)), iql.Int(int64(i%17)))
	}
	ext := iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		return iql.BagOf(pairs), nil
	})
	e := iql.MustParse("count([{a, c} | {a, x} <- <<t, u>>; {c, y} <- <<t, u>>; x = y])")
	ev := iql.NewEvaluator(ext)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathwayReversal measures automatic BAV reversal of a
// case-study-sized pathway.
func BenchmarkPathwayReversal(b *testing.B) {
	ig := benchIntegrator(b)
	var pw *transform.Pathway
	for _, in := range ig.Intersections() {
		for _, p := range in.PathwayBySource {
			if pw == nil || p.Len() > pw.Len() {
				pw = p
			}
		}
	}
	if pw == nil {
		b.Fatal("no pathway")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := pw.Reverse()
		if rev.Len() != pw.Len() {
			b.Fatal("bad reversal")
		}
	}
}

// BenchmarkMatcher measures matcher throughput between the two largest
// case-study schemas.
func BenchmarkMatcher(b *testing.B) {
	_, gpmdb, pepseeker, err := ispider.Wrappers(ispider.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := match.New(match.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := m.Match(gpmdb.Schema(), pepseeker.Schema(), nil, nil)
		if len(out) == 0 {
			b.Fatal("no correspondences")
		}
	}
}

// BenchmarkFederationScaling measures Federate against source schema
// width.
func BenchmarkFederationScaling(b *testing.B) {
	for _, tables := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			sb := NewSource("Wide")
			for t := 0; t < tables; t++ {
				sb.Table(fmt.Sprintf("t%03d", t), "id:int", "a", "b", "c")
			}
			w, err := sb.Wrap()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ig, err := core.New(w)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ig.Federate("F"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchServerSetup builds a dataspace server over the toy bookstore
// integration and returns an httptest front end for it.
func benchServerSetup(b *testing.B) *httptest.Server {
	b.Helper()
	srv := server.New(server.DefaultConfig())
	sess, err := srv.Sessions().Get("default", true)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range toySources(b) {
		if err := sess.AddSource(w); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sess.Federate(context.Background(), "F", false); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Intersect("I1", toyMappings); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(func() { srv.PurgePlans() })
	benchSrv = srv
	return ts
}

var benchSrv *server.Server

// benchServerQuery posts one query and asserts HTTP 200.
func benchServerQuery(b *testing.B, ts *httptest.Server, body map[string]any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		b.Fatalf("query status %d: %s", resp.StatusCode, msg)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerQuery measures one HTTP query through the dataspace
// server in its three cache regimes: cold (plan cache purged every
// iteration, result cache bypassed), plan-cached (parse skipped, full
// GAV evaluation), and result-cached (answer served from the result
// cache). The spread between the three is the serving layer's caching
// headroom; later perf PRs should widen it.
func BenchmarkServerQuery(b *testing.B) {
	const q = "count([{k, x} | {k, x} <- <<UBook, isbn>>])"
	ts := benchServerSetup(b)

	b.Run("cold", func(b *testing.B) {
		body := map[string]any{"query": q, "no_cache": true}
		for i := 0; i < b.N; i++ {
			benchSrv.PurgePlans()
			benchServerQuery(b, ts, body)
		}
	})
	b.Run("plan-cached", func(b *testing.B) {
		body := map[string]any{"query": q, "no_cache": true}
		benchServerQuery(b, ts, body) // warm the plan cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServerQuery(b, ts, body)
		}
	})
	b.Run("result-cached", func(b *testing.B) {
		body := map[string]any{"query": q}
		benchServerQuery(b, ts, body) // warm both caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServerQuery(b, ts, body)
		}
	})
}

// benchServerPost posts JSON to a path and decodes the JSON response.
func benchServerPost(b *testing.B, ts *httptest.Server, path string, body map[string]any) map[string]any {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		b.Fatalf("%s status %d: %v", path, resp.StatusCode, out)
	}
	return out
}

// BenchmarkIterationWarmCache measures the payoff of dependency-tracked
// invalidation: after an integration iteration that touches an
// unrelated scheme (<<UScan>> from Archive), a warm repeated query over
// <<UBook, isbn>> is still answered from cache — pinned queries straight
// from the result cache, current-version queries from warm extent memos
// — instead of being re-unfolded from the sources as the old
// purge-everything path forced.
func BenchmarkIterationWarmCache(b *testing.B) {
	const q = "count([{k, x} | {k, x} <- <<UBook, isbn>>])"
	ts := benchServerSetup(b) // federate (v0) + intersect I1 (v1)

	// Warm the result cache at the published version 1.
	pinned := map[string]any{"query": q, "version": 1}
	benchServerPost(b, ts, "/query", pinned)

	// One unrelated iteration: integrate Archive's scans. Its touch-set
	// ({UScan, UScan|format}) is disjoint from every warm UBook answer.
	benchServerPost(b, ts, "/refine", map[string]any{
		"name": "scans",
		"mapping": map[string]any{
			"target": "<<UScan, format>>",
			"forward": []map[string]any{
				{"source": "Archive", "query": "[{'ARC', k, x} | {k, x} <- <<scans, format>>]"},
			},
		},
	})

	b.Run("pinned-result-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := benchServerPost(b, ts, "/query", pinned)
			if !out["result_cached"].(bool) {
				b.Fatal("warm pinned query was not served from the result cache after an unrelated iteration")
			}
		}
	})

	b.Run("current-extents-warm", func(b *testing.B) {
		sess, err := benchSrv.Sessions().Get("default", false)
		if err != nil {
			b.Fatal(err)
		}
		cur := map[string]any{"query": q}
		benchServerPost(b, ts, "/query", cur) // warm at the new version
		memo0, src0 := sess.ExtentCacheStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServerPost(b, ts, "/query", map[string]any{"query": q, "no_cache": true})
		}
		b.StopTimer()
		memo1, src1 := sess.ExtentCacheStats()
		if memo1.Misses != memo0.Misses || src1.Misses != src0.Misses {
			b.Fatalf("re-unfolding happened after an unrelated iteration: memo misses %d->%d, source misses %d->%d",
				memo0.Misses, memo1.Misses, src0.Misses, src1.Misses)
		}
	})
}

// BenchmarkSchemeParse measures scheme parsing/printing round trips.
func BenchmarkSchemeParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := hdm.ParseScheme("<<UProteinHit, dbsearch>>")
		if err != nil {
			b.Fatal(err)
		}
		if sc.String() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkReverseProcessor measures building the LAV-direction
// processor (materialise global + reverse pathways).
func BenchmarkReverseProcessor(b *testing.B) {
	ig := benchIntegrator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ig.ReverseProcessor(); err != nil {
			b.Fatal(err)
		}
	}
}
