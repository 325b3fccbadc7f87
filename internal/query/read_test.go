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
	"github.com/dataspace/automed/internal/wrapper"
)

// newFlakyObject is a flakySource serving one object <<obj>>, so that
// several flaky sources can meet in one query unambiguously.
func newFlakyObject(t *testing.T, name, obj string) *flakySource {
	t.Helper()
	f := newFlakySource(t, name)
	sch := hdm.NewSchema(name)
	sch.MustAdd(hdm.NewObject(hdm.MustScheme("<<"+obj+">>"), hdm.Nodal, "", ""))
	f.schema = sch
	return f
}

// flakyPair registers flaky sources A (<<a>>) and B (<<b>>) behind
// breakers; pairQuery enumerates both, so the prefetcher reads them.
func flakyPair(t *testing.T, cfg BreakerConfig) (*Processor, *flakySource, *flakySource) {
	t.Helper()
	a, b := newFlakyObject(t, "A", "a"), newFlakyObject(t, "B", "b")
	p := New()
	p.SetBreaker(cfg)
	for _, src := range []*flakySource{a, b} {
		if err := p.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	return p, a, b
}

const pairQuery = "count([{x, y} | x <- <<a>>; y <- <<b>>])"

// evalPair evaluates pairQuery with a cold extent cache under ctx.
func evalPair(p *Processor, ctx context.Context) (iql.Value, []string, error) {
	p.InvalidateCache()
	v, warns, _, err := p.EvalContext(ctx, iql.MustParse(pairQuery))
	return v, warns, err
}

// TestPrefetchObeysOpenBreaker: with A's breaker open, a two-generator
// query (whose extents the prefetcher reads) makes no call to A and
// answers from A's last-good extent.
func TestPrefetchObeysOpenBreaker(t *testing.T) {
	p, a, _ := flakyPair(t, testBreakerConfig())
	if _, _, err := evalPair(p, context.Background()); err != nil {
		t.Fatal(err)
	}
	a.setFailing(true)
	for i := 0; i < 3; i++ {
		evalPair(p, context.Background())
	}
	if h := p.SourceHealth()[0]; h.Source != "A" || h.State != "open" {
		t.Fatalf("health = %+v, want A open", h)
	}
	calls := a.callCount()
	v, warns, err := evalPair(p, context.Background())
	if got := a.callCount(); got != calls {
		t.Errorf("open breaker let %d reads of A through", got-calls)
	}
	if err != nil || v.I != 9 || len(warns) != 1 || !strings.Contains(warns[0], "breaker open") {
		t.Fatalf("breaker-open query: v=%s warns=%v err=%v", v, warns, err)
	}
}

// TestPrefetchHonoursSourceTimeout: a hanging source under a
// multi-generator query is cut by its per-source deadline, so the query
// answers degraded well before the request deadline instead of failing
// at it.
func TestPrefetchHonoursSourceTimeout(t *testing.T) {
	cfg := testBreakerConfig()
	cfg.SourceTimeout = 50 * time.Millisecond
	p, a, _ := flakyPair(t, cfg)
	if _, _, err := evalPair(p, context.Background()); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	a.hanging = true
	a.mu.Unlock()

	const deadline = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	v, warns, err := evalPair(p, ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hanging source failed the query after %v: %v", elapsed, err)
	}
	if v.I != 9 || len(warns) != 1 || !IsDegraded(warns[0]) {
		t.Fatalf("hang fallback: v=%s warns=%v", v, warns)
	}
	if elapsed > deadline/2 {
		t.Errorf("degraded answer took %v; the per-source deadline did not cut the hang", elapsed)
	}
}

// TestPrefetchedExtentHasLastGood: an extent whose first read was a
// prefetch keeps a last-good copy, so a later outage degrades instead
// of failing with no fallback.
func TestPrefetchedExtentHasLastGood(t *testing.T) {
	p, a, _ := flakyPair(t, testBreakerConfig())
	if _, _, err := evalPair(p, context.Background()); err != nil {
		t.Fatal(err)
	}
	a.setFailing(true)
	v, warns, err := evalPair(p, context.Background())
	if err != nil {
		t.Fatalf("outage after a prefetched read: %v", err)
	}
	if v.I != 9 || len(warns) != 1 || !IsDegraded(warns[0]) {
		t.Fatalf("outage answer: v=%s warns=%v", v, warns)
	}
}

// downScanSource is a streaming source whose backend is down: scanners
// open lazily and fail on their first advance, as a SQL scanner's
// first page does. It counts every read, through either entry point.
type downScanSource struct {
	schema *hdm.Schema
	reads  atomic.Int64
}

func (d *downScanSource) SchemaName() string   { return "D" }
func (d *downScanSource) Schema() *hdm.Schema  { return d.schema }
func (d *downScanSource) StreamingScans() bool { return true }

func (d *downScanSource) Extent(parts []string) (iql.Value, error) {
	d.reads.Add(1)
	return iql.Value{}, errors.New("backend down")
}

func (d *downScanSource) ExtentScanner(ctx context.Context, parts []string) (wrapper.Scanner, error) {
	d.reads.Add(1)
	return &failingScanner{}, nil
}

type failingScanner struct{ err error }

func (s *failingScanner) Next(ctx context.Context) bool {
	s.err = errors.New("backend down")
	return false
}
func (s *failingScanner) Row() iql.Value { return iql.Value{} }
func (s *failingScanner) Err() error     { return s.err }
func (s *failingScanner) Close() error   { return nil }

// TestDownStreamableSourceReadOnce: a query whose generator could
// stream a down source reads it once — the failed spill probe is the
// read's one outcome — and the breaker records exactly that failure.
func TestDownStreamableSourceReadOnce(t *testing.T) {
	src := &downScanSource{schema: hdm.NewSchema("D")}
	src.schema.MustAdd(hdm.NewObject(hdm.MustScheme("<<t>>"), hdm.Nodal, "", ""))
	p := New()
	p.SetBreaker(testBreakerConfig())
	if err := p.AddSource(src); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := p.EvalContext(context.Background(), iql.MustParse("count([x | x <- <<t>>])"))
	if err == nil || !strings.Contains(err.Error(), "backend down") {
		t.Fatalf("err = %v, want the backend's failure", err)
	}
	if n := src.reads.Load(); n != 1 {
		t.Errorf("one query read the down source %d times, want 1", n)
	}
	if h := p.SourceHealth()[0]; h.WindowSize != 1 || h.ConsecutiveFailures != 1 {
		t.Errorf("breaker = %+v, want one recorded failure", h)
	}
}

// TestLastGoodBoundedByCacheBytes: with fallback on, the last-good
// copies live under the -cache-bytes budget, so reading more source
// extents than the budget holds leaves the live heap bounded by it.
func TestLastGoodBoundedByCacheBytes(t *testing.T) {
	const (
		budget  = 4 << 20
		objects = 40
		rows    = 20000
	)
	sch := hdm.NewSchema("S")
	for i := 0; i < objects; i++ {
		sch.MustAdd(hdm.NewObject(hdm.MustScheme(fmt.Sprintf("<<t%d>>", i)), hdm.Nodal, "", ""))
	}
	// Every read builds a fresh extent, as a remote source's would.
	ext := iql.ExtentsFunc(func(parts []string) (iql.Value, error) {
		items := make([]iql.Value, rows)
		for i := range items {
			items[i] = iql.Int(int64(i))
		}
		return iql.BagOf(items), nil
	})
	p := New()
	p.SetBreaker(testBreakerConfig())
	p.SetCacheBytes(budget)
	if err := p.AddExtents("S", sch, ext); err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := live()
	for i := 0; i < objects; i++ {
		v, _, _, err := p.EvalContext(context.Background(), iql.MustParse(fmt.Sprintf("count(<<t%d>>)", i)))
		if err != nil || v.I != rows {
			t.Fatalf("count(<<t%d>>) = %s, %v", i, v, err)
		}
	}
	if n := p.lastGood.Bytes(); n > budget {
		t.Errorf("last-good copies hold %d bytes, over the %d-byte budget", n, budget)
	}
	// The source-extent cache and the last-good tier share extents, so
	// together they retain about one budget's worth; 2x leaves slack for
	// the runtime. All objects' extents would be ~10x the budget.
	if grown := live() - base; grown > 2*budget {
		t.Errorf("live heap grew %d bytes over %d extents; want under %d (2x the cache budget)", grown, objects, 2*budget)
	}
	runtime.KeepAlive(p)
}

// TestLastGoodOnlyWithFallback: last-good copies are kept only where
// stale fallback can serve them — breakers on and fallback not disabled.
func TestLastGoodOnlyWithFallback(t *testing.T) {
	noFallback := testBreakerConfig()
	noFallback.DisableFallback = true
	for _, tc := range []struct {
		name string
		cfg  BreakerConfig
		want int
	}{
		{"breakers off", BreakerConfig{}, 0},
		{"fallback disabled", noFallback, 0},
		{"fallback on", testBreakerConfig(), 2},
	} {
		p, _, _ := flakyPair(t, tc.cfg)
		if _, _, err := evalPair(p, context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := p.lastGood.Len(); n != tc.want {
			t.Errorf("%s: %d last-good copies, want %d", tc.name, n, tc.want)
		}
	}
}
