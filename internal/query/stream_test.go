package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// newStreamSQLSource registers a sqlmem-backed SQL wrapper serving an
// "items" table of rows (id i, v i%10) with the given fetch page size.
func newStreamSQLSource(t *testing.T, dsn string, rows, pageRows int) *wrapper.SQL {
	t.Helper()
	db := rel.NewDB("S")
	tb := db.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "v", Type: rel.Int},
	}, "id")
	for i := 0; i < rows; i++ {
		tb.MustInsert(int64(i), int64(i%10))
	}
	sqlmem.Register(dsn, db)
	w, err := wrapper.NewSQL("S", wrapper.SQLConfig{
		Driver:        sqlmem.DriverName,
		DSN:           dsn,
		FetchPageRows: pageRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStreamedQueryMatchesMaterialised is the byte-identity guard for
// the streaming pipeline: the same single-generator query over an
// extent far above the spill threshold must return exactly the same
// value streamed as materialised, and streaming must not leave the
// whole extent resident in the source-extent cache.
func TestStreamedQueryMatchesMaterialised(t *testing.T) {
	const rows = 10000
	// A non-equality filter: "v = 3" would be planned as an indexed
	// const-key lookup, which (like any join) materialises its source.
	q := iql.MustParse(`[x | {x, v} <- <<items, v>>; v < 1]`)

	run := func(dsn string, scanBuffer int) (*Processor, iql.Value) {
		w := newStreamSQLSource(t, dsn, rows, 256)
		p := New()
		p.ScanBuffer = scanBuffer
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
		v, _, _, err := p.EvalContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return p, v
	}

	streamed, vs := run("stream-eq-s", 128)
	materialised, vm := run("stream-eq-m", -1)
	if vs.String() != vm.String() {
		t.Fatalf("streamed result diverges from materialised:\n  streamed:     %s\n  materialised: %s", vs, vm)
	}
	if vs.Len() != rows/10 {
		t.Fatalf("result has %d elements, want %d", vs.Len(), rows/10)
	}

	const ck = "S\x00items|v"
	if streamed.srcExt.Peek(ck) {
		t.Error("streamed evaluation cached the full extent; streaming should bypass the source-extent cache")
	}
	if !materialised.srcExt.Peek(ck) {
		t.Error("materialised evaluation did not cache the extent")
	}
}

// TestStreamSpillThresholdMaterialisesSmallExtents: an extent at or
// below the scan buffer is read once through the scanner, materialised
// and cached, so repeated queries serve it from the cache exactly as
// the non-streaming pipeline would.
func TestStreamSpillThresholdMaterialisesSmallExtents(t *testing.T) {
	w := newStreamSQLSource(t, "stream-small", 32, 16)
	p := New()
	p.ScanBuffer = 128 // 32 rows < 128: below the spill threshold
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	v, _, _, err := p.EvalContext(context.Background(), iql.MustParse(`count([x | {x, v} <- <<items, v>>])`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != iql.KindInt || v.I != 32 {
		t.Fatalf("count = %s, want 32", v)
	}
	if !p.srcExt.Peek("S\x00items|v") {
		t.Error("small extent was not materialised into the source-extent cache")
	}
}

// TestStreamDeadlineCutsMidStream: a request deadline expiring while a
// streamed scan is in flight must surface as a deadline error through
// the generator, not hang or return a truncated result.
func TestStreamDeadlineCutsMidStream(t *testing.T) {
	const dsn = "stream-deadline"
	w := newStreamSQLSource(t, dsn, 5000, 64)
	sqlmem.SetDelay(dsn, 20*time.Millisecond) // per page round trip
	p := New()
	p.ScanBuffer = 64
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Millisecond)
	defer cancel()
	_, _, _, err := p.EvalContext(ctx, iql.MustParse(`count([x | {x, v} <- <<items, v>>])`))
	if err == nil {
		t.Fatal("query over a 5000-row source with 20ms/page delay beat a 90ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
}

// TestStreamDisabledNeverScans: ScanBuffer < 0 must route every extent
// through the materialised path even when the wrapper could stream.
func TestStreamDisabledNeverScans(t *testing.T) {
	w := newStreamSQLSource(t, "stream-off", 2000, 128)
	p := New()
	p.ScanBuffer = -1
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	v, err := p.Query(`count([x | {x, v} <- <<items, v>>])`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != iql.KindInt || v.I != 2000 {
		t.Fatalf("count = %s, want 2000", v)
	}
	if !p.srcExt.Peek("S\x00items|v") {
		t.Error("with streaming disabled the extent should be fetched and cached whole")
	}
}

// TestStreamParallelShardingEquivalence: a streamed serial scan and a
// sharded data-parallel scan over the materialised extent must produce
// identical results — streaming must not perturb the parallel
// pipeline's byte-identity guarantee.
func TestStreamParallelShardingEquivalence(t *testing.T) {
	const rows = 8000
	build := func(dsn string, parallel, scanBuffer int) iql.Value {
		w := newStreamSQLSource(t, dsn, rows, 512)
		p := New()
		p.Parallel = parallel
		p.ScanBuffer = scanBuffer
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
		v, err := p.Query(fmt.Sprintf(`[x | {x, v} <- <<items, v>>; v < %d]`, 7))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	streamed := build("stream-par-1", 1, 512)
	sharded := build("stream-par-8", 8, -1)
	if streamed.String() != sharded.String() {
		t.Fatal("streamed serial evaluation diverges from sharded materialised evaluation")
	}
}

// TestStreamRenameChase covers the federation shape: a virtual object
// defined as a bare scheme-reference rename of a streaming source
// object must stream exactly like the source object itself (same
// result, no full extent in the source-extent cache), while a virtual
// object with a computed body must keep materialising.
func TestStreamRenameChase(t *testing.T) {
	const rows = 10000
	w := newStreamSQLSource(t, "stream-rename", rows, 256)
	p := New()
	p.ScanBuffer = 128
	if err := p.AddSource(w); err != nil {
		t.Fatal(err)
	}
	// big_items renames the source object, as /federate's include
	// transforms do; computed derives it through a comprehension.
	p.Define(hdm.MustScheme("<<big_items, v>>"), iql.MustParse("<<items, v>>"), "rename", "S")
	p.Define(hdm.MustScheme("<<computed, v>>"), iql.MustParse("[r | r <- <<items, v>>]"), "comp", "S")

	v, _, _, err := p.EvalContext(context.Background(), iql.MustParse(`[x | {x, v} <- <<big_items, v>>; v < 1]`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != rows/10 {
		t.Fatalf("renamed stream returned %d elements, want %d", v.Len(), rows/10)
	}
	const ck = "S\x00items|v"
	if p.srcExt.Peek(ck) {
		t.Error("rename chase cached the full extent; the chased stream should bypass the source-extent cache")
	}

	// The computed virtual cannot be chased: its unfolding materialises
	// into the memo as before (the body's own evaluation may still
	// stream its generator internally, which is why srcExt is not
	// asserted here).
	v, _, _, err = p.EvalContext(context.Background(), iql.MustParse(`[x | {x, v} <- <<computed, v>>; v < 1]`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != rows/10 {
		t.Fatalf("computed virtual returned %d elements, want %d", v.Len(), rows/10)
	}
	if !p.memo.Peek("computed|v") {
		t.Error("computed virtual was not memoised; its unfolding should materialise as before")
	}
}

// TestStreamedSourceMetricsMatchMaterialised: a streamed scan reports
// the same source rows and bytes to the per-source registry as the
// materialised fetch of the same extent. The SQL wrapper reports no
// wire bytes, so both paths fall back to the extent's footprint.
func TestStreamedSourceMetricsMatchMaterialised(t *testing.T) {
	const rows = 3000
	q := iql.MustParse(`count([x | {x, v} <- <<items, v>>; v < 1])`)
	run := func(dsn string, scanBuffer int) obs.SourceSnapshot {
		w := newStreamSQLSource(t, dsn, rows, 256)
		p := New()
		p.ScanBuffer = scanBuffer
		if err := p.AddSource(w); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewSources()
		if _, _, _, err := p.EvalContext(obs.WithSources(context.Background(), reg), q); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if len(snap) != 1 || snap[0].Fetches != 1 {
			t.Fatalf("source metrics = %+v, want one fetch of one source", snap)
		}
		return snap[0]
	}
	streamed := run("stream-metrics-s", 128)
	materialised := run("stream-metrics-m", -1)
	if streamed.Rows != rows || materialised.Rows != rows {
		t.Errorf("source rows: streamed %d, materialised %d, want %d", streamed.Rows, materialised.Rows, rows)
	}
	if streamed.Bytes == 0 || streamed.Bytes != materialised.Bytes {
		t.Errorf("source bytes: streamed %d, materialised %d, want equal and non-zero", streamed.Bytes, materialised.Bytes)
	}
}

// countingScanSource is a streaming extent provider over the integers
// 0..n-1 of one object <<t>>: its scanners count every row they hand
// out, so tests can compare rows pulled from the source with rows the
// consumer has taken.
type countingScanSource struct {
	schema *hdm.Schema
	n      int
	pulled atomic.Int64
}

func newCountingScanSource(n int) *countingScanSource {
	sch := hdm.NewSchema("C")
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	return &countingScanSource{schema: sch, n: n}
}

func (c *countingScanSource) SchemaName() string   { return "C" }
func (c *countingScanSource) Schema() *hdm.Schema  { return c.schema }
func (c *countingScanSource) StreamingScans() bool { return true }

func (c *countingScanSource) Extent(parts []string) (iql.Value, error) {
	items := make([]iql.Value, c.n)
	for i := range items {
		items[i] = iql.Int(int64(i))
	}
	return iql.BagOf(items), nil
}

func (c *countingScanSource) ExtentScanner(ctx context.Context, parts []string) (wrapper.Scanner, error) {
	return &countingRowScanner{src: c}, nil
}

type countingRowScanner struct {
	src *countingScanSource
	i   int
	err error
}

func (s *countingRowScanner) Next(ctx context.Context) bool {
	if s.err != nil || s.i >= s.src.n {
		return false
	}
	if s.err = ctx.Err(); s.err != nil {
		return false
	}
	s.i++
	s.src.pulled.Add(1)
	return true
}

func (s *countingRowScanner) Row() iql.Value { return iql.Int(int64(s.i - 1)) }
func (s *countingRowScanner) Err() error     { return s.err }
func (s *countingRowScanner) Close() error   { return nil }

// TestStreamResidencyBound: with a consumer slower than the source,
// rows pulled from the scanner minus rows returned by Next never exceed
// the bound documented on sourceStream — the probe's buf+1 rows plus
// the pump's buf-row window, and once the probe is consumed (and
// released), the window plus the unread rest of one batch.
func TestStreamResidencyBound(t *testing.T) {
	const rows, buf = 3000, 64
	src := newCountingScanSource(rows)
	p := New()
	p.ScanBuffer = buf
	if err := p.AddSource(src); err != nil {
		t.Fatal(err)
	}
	rs, ok, err := p.newSession(context.Background()).ExtentStream([]string{"t"})
	if err != nil || !ok {
		t.Fatalf("ExtentStream = (%v, %v), want a stream", ok, err)
	}
	defer rs.Close()
	batchRows, _ := streamBatching(buf)
	var consumed, peak int64
	for rs.Next() {
		if rs.Row().I != consumed {
			t.Fatalf("row %d = %s, want %d", consumed, rs.Row(), consumed)
		}
		consumed++
		if consumed%16 == 0 {
			// Let the pump run as far ahead as it can.
			time.Sleep(200 * time.Microsecond)
		}
		ahead := src.pulled.Load() - consumed
		peak = max(peak, ahead)
		bound := int64(2*buf + 1)
		if consumed > buf+1 {
			bound = int64(buf + batchRows - 1)
			// Past the probe, the stream holds only pumped batches.
			if c := cap(rs.(*sourceStream).batch); c != batchRows {
				t.Fatalf("after %d rows consumed the stream still holds a %d-row probe", consumed, c)
			}
		}
		if ahead > bound {
			t.Fatalf("after %d rows consumed, %d pulled rows are resident; bound is %d", consumed, ahead, bound)
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if consumed != rows {
		t.Fatalf("consumed %d rows, want %d", consumed, rows)
	}
	if peak <= buf {
		t.Errorf("peak read-ahead %d never exceeded the probe: the pump did not prefetch", peak)
	}
}

// waitGoroutines waits briefly for the goroutine count to fall back to
// base, reporting the last count seen.
func waitGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestStreamEvaluatorErrorAbandonsScan: when evaluation fails
// mid-stream (here, the step budget), the stream's pump goroutine
// exits, the breaker records no outcome (the failure says nothing
// about the source), and the next query streams normally.
func TestStreamEvaluatorErrorAbandonsScan(t *testing.T) {
	const rows, buf = 5000, 64
	src := newCountingScanSource(rows)
	p := New()
	p.ScanBuffer = buf
	p.SetBreaker(testBreakerConfig())
	if err := p.AddSource(src); err != nil {
		t.Fatal(err)
	}
	q := iql.MustParse(`count([x | x <- <<t>>; x >= 0])`)
	base := runtime.NumGoroutine()

	p.MaxSteps = 1000
	if _, _, _, err := p.EvalContext(context.Background(), q); err == nil {
		t.Fatal("a 5000-row scan fit a 1000-step budget")
	}
	if n := waitGoroutines(base); n > base {
		t.Errorf("%d goroutines after the failed scan, want %d: the pump leaked", n, base)
	}
	if pulled := src.pulled.Load(); pulled >= rows {
		t.Errorf("the abandoned scan pulled all %d rows", pulled)
	}
	if h := p.SourceHealth()[0]; h.WindowSize != 0 || h.State != "closed" {
		t.Errorf("breaker after an evaluator error = %+v, want no recorded outcome", h)
	}

	p.MaxSteps = 0
	src.pulled.Store(0)
	v, _, _, err := p.EvalContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != rows || src.pulled.Load() != rows {
		t.Errorf("count = %s with %d rows pulled, want %d of each", v, src.pulled.Load(), rows)
	}
	if p.srcExt.Peek("C\x00t") {
		t.Error("the retried query materialised the extent instead of streaming it")
	}
	if h := p.SourceHealth()[0]; h.WindowSize != 1 || h.ConsecutiveFailures != 0 {
		t.Errorf("breaker after a clean scan = %+v, want one success", h)
	}
}

// vanishingSQL wraps a SQL source so that the backend is unregistered
// once its scanner has handed out its first page.
type vanishingSQL struct {
	*wrapper.SQL
	dsn   string
	after int
}

func (v *vanishingSQL) ExtentScanner(ctx context.Context, parts []string) (wrapper.Scanner, error) {
	scn, err := v.SQL.ExtentScanner(ctx, parts)
	if err != nil {
		return nil, err
	}
	return &vanishingScanner{Scanner: scn, src: v}, nil
}

type vanishingScanner struct {
	wrapper.Scanner
	src  *vanishingSQL
	rows int
}

func (s *vanishingScanner) Next(ctx context.Context) bool {
	if !s.Scanner.Next(ctx) {
		return false
	}
	if s.rows++; s.rows == s.src.after {
		sqlmem.Unregister(s.src.dsn)
	}
	return true
}

// TestStreamBackendVanishesMidScan: a backend that disappears after
// the first page fails the streamed generator with the backend's error,
// and the breaker records the failure.
func TestStreamBackendVanishesMidScan(t *testing.T) {
	const dsn, page = "stream-vanish", 256
	w := newStreamSQLSource(t, dsn, 5000, page)
	p := New()
	p.ScanBuffer = 64
	p.SetBreaker(testBreakerConfig())
	if err := p.AddSource(&vanishingSQL{SQL: w, dsn: dsn, after: page}); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := p.EvalContext(context.Background(), iql.MustParse(`count([x | {x, v} <- <<items, v>>; v < 1])`))
	if err == nil || !strings.Contains(err.Error(), "no database registered") {
		t.Fatalf("error = %v, want the vanished backend's error", err)
	}
	if h := p.SourceHealth()[0]; h.WindowSize != 1 || h.ConsecutiveFailures != 1 {
		t.Errorf("breaker after a mid-scan backend failure = %+v, want one recorded failure", h)
	}
}
