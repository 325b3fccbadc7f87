package main

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// stack is the traced run's in-process layer stack over the same
// generated sources as the daemon under test: a second daemon reached
// by calling its handler, one core integrator per session, and the SQL
// sources whose wrapper and backend the layer passes time.
type stack struct {
	srv *inproc
	igs map[string]*core.Integrator
	// scans are the SQL sources the wrapper and sqlmem passes drain.
	scans []scanTarget

	mu        sync.Mutex
	federate  []time.Duration
	intersect []time.Duration
	refine    []time.Duration
}

// scanTarget is one SQL source: its wrapper, and the DSN and database
// behind it for the raw database/sql drain.
type scanTarget struct {
	w   *wrapper.SQL
	dsn string
	db  *rel.DB
}

func (st *stack) noteWrite(op writeOp, d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if op.refine {
		st.refine = append(st.refine, d)
	} else {
		st.intersect = append(st.intersect, d)
	}
}

// replay replays each traced request through the layers' public
// functions, one child span per call, and checks that the answer it
// assembles equals the daemon's.
type replay struct {
	st      *stack
	tr      *tracer
	queries []string
	// idx is the evaluator's join-index cache, shared across replays
	// as the daemon shares its own across queries.
	idx *iql.JoinIndexCache

	mu     sync.Mutex
	seen   []bool
	nseen  int
	steps  [][]float64 // per query: serial evaluation steps
	allocs [][]float64 // per query: heap objects allocated by Eval
	checks int
	// stepsBy is the step count seen first per session and query.
	stepsBy map[string]int
}

func newReplay(st *stack, wl workload) *replay {
	n := len(wl.queries())
	return &replay{
		st:      st,
		tr:      newTracer(),
		queries: wl.queries(),
		idx:     iql.NewJoinIndexCache(0),
		seen:    make([]bool, n),
		steps:   make([][]float64, n),
		allocs:  make([][]float64, n),
		stepsBy: map[string]int{},
	}
}

// covered reports whether every query has been replayed at least once.
func (rp *replay) covered() bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.nseen == len(rp.seen)
}

func (rp *replay) request(root int32, r *request, op writeOp, value []byte) error {
	if r.q < 0 {
		return rp.write(root, r.session, op)
	}
	return rp.query(root, r, value)
}

func (rp *replay) write(root int32, session string, op writeOp) error {
	if err := rp.tr.timed("server.write", root, -1, func() error {
		_, err := mustPost(rp.st.srv, op.path, op.body, http.StatusCreated)
		return err
	}); err != nil {
		return err
	}
	ig := rp.st.igs[session]
	name := "core.intersect"
	if op.refine {
		name = "core.refine"
	}
	start := time.Now()
	if err := rp.tr.timed(name, root, -1, func() error { return op.apply(ig) }); err != nil {
		return err
	}
	rp.st.noteWrite(op, time.Since(start))
	return nil
}

// query replays one query: the handler of the second daemon; parse;
// the extent of each referenced object; a serial evaluation over those
// extents; rendering; and the core integrator's query path.
func (rp *replay) query(root int32, r *request, value []byte) error {
	q, tr := r.q, rp.tr
	ig := rp.st.igs[r.session]
	proc := ig.Processor()
	if r.invalidate {
		if _, err := mustPost(rp.st.srv, "/sessions/"+r.session+"/invalidate", nil, http.StatusOK); err != nil {
			return err
		}
	}
	var data []byte
	if err := tr.timed("server.handler", root, q, func() (err error) {
		data, err = mustPost(rp.st.srv, "/query", r.body, http.StatusOK)
		return err
	}); err != nil {
		return err
	}
	var qr queryResp
	if err := json.Unmarshal(data, &qr); err != nil {
		return err
	}
	if !bytes.Equal(qr.Value, value) {
		return fmt.Errorf("in-process handler answered %.200s, daemon %.200s", qr.Value, value)
	}

	var e iql.Expr
	if err := tr.timed("iql.parse", root, q, func() (err error) {
		e, err = iql.Parse(rp.queries[q])
		return err
	}); err != nil {
		return err
	}
	if r.invalidate || r.uncached {
		proc.InvalidateCache()
	}
	ext := map[string]iql.Value{}
	for _, parts := range iql.UniqueSchemeRefs(e) {
		if err := tr.timed("query.extent", root, q, func() error {
			v, err := proc.Extent(parts)
			ext[strings.Join(parts, "|")] = v
			return err
		}); err != nil {
			return err
		}
	}
	ev := &iql.Evaluator{
		Ext: iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
			v, ok := ext[strings.Join(parts, "|")]
			if !ok {
				return iql.Value{}, fmt.Errorf("no extent for %v", parts)
			}
			return v, nil
		}),
		Indexes: rp.idx,
	}
	var v iql.Value
	a0 := mallocs()
	if err := tr.timed("iql.eval", root, q, func() (err error) {
		v, err = ev.Eval(e, nil)
		return err
	}); err != nil {
		return err
	}
	allocs := mallocs() - a0
	_ = tr.timed("iql.render", root, q, func() error {
		_ = v.String()
		return nil
	})
	got, err := encodeValue(v)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, value) {
		return fmt.Errorf("decomposed answer %.200s, daemon %.200s", got, value)
	}

	if r.invalidate || r.uncached {
		proc.InvalidateCache()
	}
	var res core.Result
	if err := tr.timed("core.query", root, q, func() (err error) {
		res, err = ig.QueryExprAt(context.Background(), core.CurrentVersion, e)
		return err
	}); err != nil {
		return err
	}
	if got, err = encodeValue(res.Value); err != nil {
		return err
	}
	if !bytes.Equal(got, value) {
		return fmt.Errorf("core integrator answered %.200s, daemon %.200s", got, value)
	}

	rp.mu.Lock()
	defer rp.mu.Unlock()
	// The serial step count is exact: the same query over the same
	// session's data must always take the same number of steps.
	key := r.session + "\x00" + strconv.Itoa(q)
	if prev, ok := rp.stepsBy[key]; ok && prev != ev.Steps() {
		return fmt.Errorf("serial evaluation took %d steps, %d before", ev.Steps(), prev)
	}
	rp.stepsBy[key] = ev.Steps()
	rp.checks += 3
	rp.steps[q] = append(rp.steps[q], float64(ev.Steps()))
	rp.allocs[q] = append(rp.allocs[q], float64(allocs))
	if !rp.seen[q] {
		rp.seen[q] = true
		rp.nseen++
	}
	return nil
}

// mallocs is the exact cumulative count of heap objects allocated
// (runtime/metrics batches its count per processor cache, which is too
// coarse for one evaluation).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerStats is what the wrapper and sqlmem passes measured.
type layerStats struct {
	rows, allocs int64
	scan, raw    time.Duration
}

// layerPasses drains every object of the stack's SQL sources three
// ways, repeating whole passes for at least minDur: the wrapper's
// scanner, the wrapper's materialised Extent, and a raw database/sql
// drain of the same SELECT pages the scanner sends.
func (rp *replay) layerPasses(minDur time.Duration) (layerStats, error) {
	var ls layerStats
	ctx := context.Background()
	dbs := map[string]*sql.DB{}
	defer func() {
		for _, db := range dbs {
			db.Close()
		}
	}()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < minDur; pass++ {
		root := rp.tr.begin("layer.pass", -1, -1)
		for _, t := range rp.st.scans {
			db := dbs[t.dsn]
			if db == nil {
				var err error
				if db, err = sql.Open(sqlmem.DriverName, t.dsn); err != nil {
					return ls, err
				}
				dbs[t.dsn] = db
			}
			for _, o := range t.w.Schema().Objects() {
				parts := o.Scheme.Parts()
				a0 := mallocs()
				t0 := time.Now()
				var n int64
				if err := rp.tr.timed("wrapper.scan", root, -1, func() error {
					sc, err := t.w.ExtentScanner(ctx, parts)
					if err != nil {
						return err
					}
					defer sc.Close()
					for sc.Next(ctx) {
						n++
					}
					return sc.Err()
				}); err != nil {
					return ls, err
				}
				ls.scan += time.Since(t0)
				ls.allocs += int64(mallocs() - a0)
				ls.rows += n
				if err := rp.tr.timed("wrapper.extent", root, -1, func() error {
					_, err := t.w.Extent(parts)
					return err
				}); err != nil {
					return ls, err
				}
				t0 = time.Now()
				if err := rp.tr.timed("sqlmem.scan", root, -1, func() error {
					return rawDrain(ctx, db, t.db, parts)
				}); err != nil {
					return ls, err
				}
				ls.raw += time.Since(t0)
			}
		}
		rp.tr.end(root)
	}
	return ls, nil
}

// rawDrain pages one object's extent SELECT through database/sql
// exactly as the SQL wrapper's scanner does, without building values.
func rawDrain(ctx context.Context, db *sql.DB, schema *rel.DB, parts []string) error {
	t, ok := schema.Table(parts[0])
	if !ok {
		return fmt.Errorf("no table %q", parts[0])
	}
	cols := quote(t.PrimaryKey())
	if len(parts) == 2 {
		cols += ", " + quote(parts[1])
	}
	base := fmt.Sprintf("SELECT %s FROM %s", cols, quote(parts[0]))
	page := wrapper.DefaultFetchPageRows
	dest := make([]any, len(parts))
	ptrs := make([]any, len(parts))
	for i := range dest {
		ptrs[i] = &dest[i]
	}
	for off := 0; ; off += page {
		rows, err := db.QueryContext(ctx, fmt.Sprintf("%s LIMIT %d OFFSET %d", base, page, off))
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			if err := rows.Scan(ptrs...); err != nil {
				rows.Close()
				return err
			}
			n++
		}
		err = rows.Err()
		rows.Close()
		if err != nil {
			return err
		}
		if n < page {
			return nil
		}
	}
}

func quote(ident string) string { return `"` + strings.ReplaceAll(ident, `"`, `""`) + `"` }

// runTraced is the traced run: untraced rounds for half the time, which
// the per-layer counters and the tracing overhead are measured on, then
// traced rounds whose requests are replayed through the layers, then
// the wrapper and sqlmem passes.
func runTraced(opts options, wl workload, rep *report) error {
	if err := wl.build(opts.seed, opts.scale); err != nil {
		return fmt.Errorf("building inputs: %w", err)
	}
	st, err := wl.stack()
	if err != nil {
		return fmt.Errorf("building the layer stack: %w", err)
	}
	half := seconds(opts.seconds / 2)
	plain, err := runRounds(wl, half, nil)
	if err != nil {
		return err
	}
	rp := newReplay(st, wl)
	traced, err := runRounds(wl, half, rp)
	if err != nil {
		return err
	}
	rep.SetupRuns = append(plain.setups, traced.setups...)
	ls, err := rp.layerPasses(min(time.Second, half/4))
	if err != nil {
		return fmt.Errorf("layer passes: %w", err)
	}
	for _, ph := range []*phase{plain, traced} {
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
		rep.Checks += ph.checks
		rep.Samples += len(ph.all)
		reportMismatches(ph)
	}
	rep.Checks += rp.checks
	rep.Metrics = perLayer(wl, plain, traced, rp, ls)
	for name, m := range endToEnd(wl, plain, 0) {
		if name != "heap_live_mb" {
			rep.Extra["untraced."+name] = m
		}
	}
	for name, m := range endToEnd(wl, traced, 0) {
		if name != "heap_live_mb" {
			rep.Extra["traced."+name] = m
		}
	}
	if opts.outdir == "" {
		return nil
	}
	self := rp.tr.selfTimes()
	selfNs := make([]int64, len(self))
	for i, s := range self {
		selfNs[i] = s.Nanoseconds()
	}
	return writeJSONFile(filepath.Join(opts.outdir, "traces",
		fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed)),
		map[string]any{"spans": rp.tr.spans, "self_ns": selfNs})
}

// perLayer derives the per-layer metrics: span self times from the
// traced half, counters and runtime deltas from the untraced half.
func perLayer(wl workload, plain, traced *phase, rp *replay, ls layerStats) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	us := func(d float64) float64 { return d / 1e3 }

	spans, self := rp.tr.spans, rp.tr.selfTimes()
	byName := map[string][]float64{}
	// perQ sums each request's self time per layer, by query.
	type key struct {
		name string
		req  int32
	}
	perReq := map[key]float64{}
	reqQ := map[int32]int{}
	for i, s := range spans {
		ns := float64(self[i])
		byName[s.Name] = append(byName[s.Name], ns)
		if s.Q >= 0 && s.Parent >= 0 {
			perReq[key{s.Name, s.Req}] += ns
			reqQ[s.Req] = s.Q
		}
	}
	perQ := map[string][][]float64{}
	for k, ns := range perReq {
		if perQ[k.name] == nil {
			perQ[k.name] = make([][]float64, len(rp.queries))
		}
		q := reqQ[k.req]
		perQ[k.name][q] = append(perQ[k.name][q], ns)
	}
	med := func(name string) float64 { return median(byName[name]) }

	// server
	put("server.handler_us", us(med("server.handler")), "us")
	var outside []float64
	for _, s := range plain.all {
		if s.q >= 0 {
			outside = append(outside, float64(s.d-s.daemon)/1e3)
		}
	}
	put("server.outside_us", median(outside), "us")
	c := plain.counters
	put("server.admitted", float64(c.admitted), "count")
	rp.st.srv.mu.Lock()
	writes := durations(rp.st.srv.writes)
	rp.st.srv.mu.Unlock()
	put("server.write_us", median(writes)/1e3, "us")

	// cache
	put("cache.plan_hit_ratio", c.plan.ratio(), "ratio")
	put("cache.result_hit_ratio", c.result.ratio(), "ratio")
	put("cache.evictions", float64(c.evictions), "count")
	put("cache.invalidations", float64(c.invalidations), "count")
	put("cache.bytes_mb", float64(c.cacheBytes)/mib, "MB")

	// iql, query and core, per query
	put("iql.parse_us", us(med("iql.parse")), "us")
	for q := range rp.queries {
		n := strconv.Itoa(q + 1)
		put("iql.eval_us.Q"+n, us(median(perQ["iql.eval"][q])), "us")
		put("iql.render_us.Q"+n, us(median(perQ["iql.render"][q])), "us")
		put("query.extent_us.Q"+n, us(median(perQ["query.extent"][q])), "us")
		put("core.query_us.Q"+n, us(median(perQ["core.query"][q])), "us")
		put("iql.steps.Q"+n, median(rp.steps[q]), "count")
		put("iql.allocs_per_query.Q"+n, median(rp.allocs[q]), "count")
	}
	par, ser := float64(c.parallelEvals), float64(c.serialEvals)
	put("iql.sharded_ratio", ratio(par, par+ser), "ratio")

	queries := 0
	for _, s := range plain.all {
		if s.q >= 0 {
			queries++
		}
	}
	put("query.memo_hit_ratio", c.extent.ratio(), "ratio")
	put("query.source_hit_ratio", c.source.ratio(), "ratio")
	put("query.fetches_per_query", ratio(float64(c.fetches), float64(queries)), "count")
	put("query.rows_per_query", ratio(float64(c.fetchRows), float64(queries)), "rows")
	put("query.bytes_per_query", ratio(float64(c.fetchBytes), float64(queries)), "bytes")
	put("query.fetch_p50_us", c.fetchQuantile(0.5)*1e3, "us")

	// wrapper and sqlmem
	put("wrapper.scan_ns_per_row", ratio(float64(ls.scan), float64(ls.rows)), "ns")
	put("wrapper.scan_allocs_per_row", ratio(float64(ls.allocs), float64(ls.rows)), "count")
	put("wrapper.extent_us", us(med("wrapper.extent")), "us")
	put("sqlmem.scan_ns_per_row", ratio(float64(ls.raw), float64(ls.rows)), "ns")

	// core
	rp.st.mu.Lock()
	put("core.federate_ms", median(durations(rp.st.federate))/1e6, "ms")
	put("core.intersect_ms", median(durations(rp.st.intersect))/1e6, "ms")
	put("core.refine_ms", median(durations(rp.st.refine))/1e6, "ms")
	rp.st.mu.Unlock()

	// runtime, over the untraced half
	n := float64(len(plain.all))
	rt := plain.runtime
	put("runtime.alloc_mb_per_request", float64(rt.allocBytes)/n/mib, "MB")
	put("runtime.gc_cycles_per_1k", float64(rt.gcCycles)/n*1e3, "count")
	put("runtime.gc_pause_p99_us", float64(rt.pauseQuantile(0.99))/1e3, "us")

	// the tracing itself
	p0 := median(millis(plain.all, func(sample) bool { return true }))
	p1 := median(millis(traced.all, func(sample) bool { return true }))
	put("trace.overhead_pct", 100*(p1-p0)/p0, "%")
	put("trace.request_self_us", us(med("request")), "us")
	put("trace.spans", float64(len(spans)), "count")
	return out
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fetchQuantile is the q-quantile, in ms, of the source fetches, as the
// upper bound of the histogram bucket holding it; 0 when there were
// none.
func (c counters) fetchQuantile(q float64) float64 {
	type bucket struct {
		bound float64
		n     uint64
	}
	var bs []bucket
	var total uint64
	for label, n := range c.fetchBuckets {
		bound := math.Inf(1)
		if label != "le_inf" {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(label, "le_"), "ms"), 64)
			if err != nil {
				continue
			}
			bound = v
		}
		bs = append(bs, bucket{bound, n})
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].bound < bs[j].bound })
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for _, b := range bs {
		cum += b.n
		if cum >= need {
			if math.IsInf(b.bound, 1) {
				return c.fetchMaxMs
			}
			return b.bound
		}
	}
	return c.fetchMaxMs
}

func reportMismatches(ph *phase) {
	for _, m := range ph.mismatches {
		fmt.Fprintln(stderr, "perfbench: failed:", m)
	}
}
