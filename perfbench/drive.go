package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/server"
)

// request is one entry of a client's fixed request sequence.
type request struct {
	session string
	// q indexes the workload's query set; -1 marks a write.
	q    int
	body []byte
	// want is the expected JSON of the answer's value, byte for byte
	// as the daemon encodes it.
	want []byte
	// invalidate drops the session's cached extents and answers
	// before the query; that request is not timed.
	invalidate bool
	// uncached marks a query whose extents the daemon never caches
	// (they stream); the traced replay drops its own extent caches
	// before the query, as it does for invalidate.
	uncached bool
	// rows is the number of source rows the query scans.
	rows int64
	// write builds the n-th write of the run; names carry n so every
	// write has a fresh target.
	write func(n uint64) writeOp
}

// writeOp is one integration write: its HTTP form for the daemon and
// its core form for the traced replay.
type writeOp struct {
	path    string
	body    []byte
	name    string
	enables []string
	refine  bool
	mapping []core.Mapping
}

// sample is one completed request.
type sample struct {
	d time.Duration
	// q is the query index, -1 for a write.
	q int
	// daemon is the daemon's own query time (elapsed_us).
	daemon time.Duration
}

// phase is what one timed phase measured.
type phase struct {
	all       []sample
	attempted int
	failed    int
	checks    int
	elapsed   time.Duration
	rows      int64
	heapPeak  uint64
	// roundPeaks are the rounds' peak live heaps, in bytes.
	roundPeaks []float64
	// roundQPS are the rounds' completed requests per second.
	roundQPS []float64
	// setups are the set-up times of the phase's rounds, in s.
	setups []float64
	// counters and runtime are the daemon's metrics and the Go
	// runtime's counters over the timed parts of the rounds.
	counters counters
	runtime  rtDelta
	// mismatches lists the first few failures, for diagnosis.
	mismatches []string
}

// writeSeq numbers writes across a whole run, so every target is fresh.
var writeSeq atomic.Uint64

// counters are deltas of the daemon's /metrics snapshot over a round,
// summed over rounds (maxima for levels).
type counters struct {
	plan, result, extent, source hitMiss
	evictions, invalidations     uint64
	cacheBytes                   int64
	admitted                     uint64
	parallelEvals, serialEvals   uint64
	fetches                      uint64
	fetchRows, fetchBytes        int64
	fetchBuckets                 map[string]uint64
	fetchMaxMs                   float64
}

type hitMiss struct{ hits, misses uint64 }

func (h hitMiss) ratio() float64 {
	return ratio(float64(h.hits), float64(h.hits+h.misses))
}

func deltaHM(a, b server.CacheStats) hitMiss {
	return hitMiss{b.Hits - a.Hits, b.Misses - a.Misses}
}

func deltaCounters(a, b server.MetricsSnapshot) counters {
	c := counters{
		plan:          deltaHM(a.PlanCache.CacheStats, b.PlanCache.CacheStats),
		result:        deltaHM(a.ResultCache.CacheStats, b.ResultCache.CacheStats),
		extent:        deltaHM(a.ExtentCache.CacheStats, b.ExtentCache.CacheStats),
		source:        deltaHM(a.SourceCache.CacheStats, b.SourceCache.CacheStats),
		evictions:     b.CacheEvictions - a.CacheEvictions,
		invalidations: b.CacheInvalidations - a.CacheInvalidations,
		cacheBytes:    b.CacheBytes,
		admitted:      b.Queue.Admitted - a.Queue.Admitted,
		parallelEvals: b.Eval.ParallelEvals - a.Eval.ParallelEvals,
		serialEvals:   b.Eval.SerialEvals - a.Eval.SerialEvals,
		fetchBuckets:  map[string]uint64{},
	}
	for _, s := range b.Sources {
		c.fetches += s.Fetches
		c.fetchRows += s.Rows
		c.fetchBytes += s.Bytes
		for label, n := range s.Latency.Buckets {
			c.fetchBuckets[label] += n
		}
		c.fetchMaxMs = max(c.fetchMaxMs, s.Latency.MaxMs)
	}
	for _, s := range a.Sources {
		c.fetches -= s.Fetches
		c.fetchRows -= s.Rows
		c.fetchBytes -= s.Bytes
		for label, n := range s.Latency.Buckets {
			c.fetchBuckets[label] -= n
		}
	}
	return c
}

func (c *counters) add(o counters) {
	for _, p := range [][2]*hitMiss{{&c.plan, &o.plan}, {&c.result, &o.result}, {&c.extent, &o.extent}, {&c.source, &o.source}} {
		p[0].hits += p[1].hits
		p[0].misses += p[1].misses
	}
	c.evictions += o.evictions
	c.invalidations += o.invalidations
	c.cacheBytes = max(c.cacheBytes, o.cacheBytes)
	c.admitted += o.admitted
	c.parallelEvals += o.parallelEvals
	c.serialEvals += o.serialEvals
	c.fetches += o.fetches
	c.fetchRows += o.fetchRows
	c.fetchBytes += o.fetchBytes
	if c.fetchBuckets == nil {
		c.fetchBuckets = map[string]uint64{}
	}
	for label, n := range o.fetchBuckets {
		c.fetchBuckets[label] += n
	}
	c.fetchMaxMs = max(c.fetchMaxMs, o.fetchMaxMs)
}

// runRounds is a timed phase: rounds of setting up a fresh daemon and
// replaying the client's fixed sequence once, until the rounds' timed
// parts add up to dur. A fresh daemon per round keeps the state that
// writes accumulate bounded, so every round does the same work. With a
// replay set (traced run), rounds continue until every query of the
// workload has been replayed.
func runRounds(wl workload, dur time.Duration, rp *replay) (*phase, error) {
	total := &phase{}
	for round := 0; total.elapsed < dur || (rp != nil && !rp.covered()); round++ {
		start := time.Now()
		d, err := startDaemon(daemonCfg())
		if err != nil {
			return nil, err
		}
		if err := wl.setup(d); err != nil {
			d.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup := time.Since(start)
		ph, err := runRound(d, wl, rp)
		d.close()
		if err != nil {
			return nil, err
		}
		if round == 0 && rp == nil {
			// The first round warms the process (heap growth, lazy
			// initialisation); its answers count, its timings do not.
			total.attempted += ph.attempted
			total.failed += ph.failed
			total.checks += ph.checks
			total.mismatches = append(total.mismatches, ph.mismatches...)
			continue
		}
		total.add(ph)
		total.setups = append(total.setups, setup.Seconds())
		total.roundPeaks = append(total.roundPeaks, float64(ph.heapPeak))
		total.roundQPS = append(total.roundQPS, float64(len(ph.all))/ph.elapsed.Seconds())
	}
	return total, nil
}

// runRound drives one set-up daemon with the workload's sequence once.
func runRound(d *daemon, wl workload, rp *replay) (*phase, error) {
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	// A collection now makes the live-heap figure current, so garbage
	// from earlier rounds cannot inflate this round's peak.
	runtime.GC()
	rt0 := readRuntime()
	gw := watchGC()
	start := time.Now()
	cl := driveClient(d, wl.sequence(), rp)
	ph := &phase{elapsed: time.Since(start), heapPeak: gw.stop()}
	rt1 := readRuntime()
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	ph.counters = deltaCounters(m0, m1)
	ph.runtime = deltaRuntime(rt0, rt1)
	cl.elapsed = 0
	ph.add(cl)
	return ph, nil
}

// add folds another phase's samples and counts into ph.
func (ph *phase) add(o *phase) {
	ph.all = append(ph.all, o.all...)
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.checks += o.checks
	ph.elapsed += o.elapsed
	ph.rows += o.rows
	ph.heapPeak = max(ph.heapPeak, o.heapPeak)
	ph.mismatches = append(ph.mismatches, o.mismatches...)
	ph.setups = append(ph.setups, o.setups...)
	ph.counters.add(o.counters)
	ph.runtime.add(o.runtime)
}

// queryResp is the part of a /query answer the client checks.
type queryResp struct {
	Value     json.RawMessage `json:"value"`
	ElapsedUs int64           `json:"elapsed_us"`
}

// driveClient is one closed-loop client: it sends its sequence once,
// in order, each request after the previous answer.
func driveClient(d *daemon, seq []*request, rp *replay) *phase {
	p := &phase{}
	for _, r := range seq {
		p.attempted++
		root := int32(-1)
		if rp != nil {
			root = rp.tr.begin("request", -1, r.q)
		}
		if err := p.send(d, r, rp, root); err != nil {
			p.failed++
			if len(p.mismatches) < 5 {
				p.mismatches = append(p.mismatches, err.Error())
			}
		}
		if rp != nil {
			rp.tr.end(root)
		}
	}
	return p
}

// send makes one request, checks its answer and records its sample;
// in a traced round it then replays the request through the layers.
func (p *phase) send(d *daemon, r *request, rp *replay, root int32) error {
	if r.invalidate {
		if status, _, err := d.post("/sessions/"+r.session+"/invalidate", nil); err != nil || status != http.StatusOK {
			return fmt.Errorf("invalidate %s: status %d, %v", r.session, status, err)
		}
	}
	path, body, want := "/query", r.body, http.StatusOK
	var op writeOp
	if r.q < 0 {
		op = r.write(writeSeq.Add(1))
		path, body, want = op.path, op.body, http.StatusCreated
	}
	hs := int32(-1)
	if rp != nil {
		hs = rp.tr.begin("client.http", root, r.q)
	}
	start := time.Now()
	status, data, err := d.post(path, body)
	lat := time.Since(start)
	if rp != nil {
		rp.tr.end(hs)
	}
	if err != nil || status != want {
		return fmt.Errorf("%s %s: status %d, %v: %.200s", path, body, status, err, data)
	}
	s := sample{d: lat, q: r.q}
	var value []byte
	if r.q >= 0 {
		var qr queryResp
		if err := json.Unmarshal(data, &qr); err != nil {
			return fmt.Errorf("%s: decoding answer: %v", body, err)
		}
		p.checks++
		if !bytes.Equal(qr.Value, r.want) {
			return fmt.Errorf("%s: answer %.200s, want %.200s", body, qr.Value, r.want)
		}
		value = qr.Value
		s.daemon = time.Duration(qr.ElapsedUs) * time.Microsecond
		p.rows += r.rows
	}
	p.all = append(p.all, s)
	if rp != nil {
		if err := rp.request(root, r, op, value); err != nil {
			return fmt.Errorf("replaying %s: %v", body, err)
		}
	}
	return nil
}

// heapReader samples the live heap as of the last collection.
type heapReader struct{ s []metrics.Sample }

func newHeapReader() *heapReader {
	return &heapReader{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapReader) read() uint64 {
	metrics.Read(h.s)
	if h.s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return h.s[0].Value.Uint64()
}

// gcWatch records the live heap after every garbage collection, from a
// finalizer that re-arms itself each cycle; the finalizer goroutine is
// the runtime's own, so watching starts none.
type gcWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
	live    *heapReader
	mu      sync.Mutex // serialises reads of live
}

func watchGC() *gcWatch {
	w := &gcWatch{live: newHeapReader()}
	w.arm()
	return w
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) {
		if w.stopped.Load() {
			return
		}
		w.note()
		w.arm()
	})
}

func (w *gcWatch) note() {
	w.mu.Lock()
	v := w.live.read()
	w.mu.Unlock()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch and returns the peak live heap it saw.
func (w *gcWatch) stop() uint64 {
	w.note()
	w.stopped.Store(true)
	return w.peak.Load()
}

// heapLive collects and returns the live heap: the baseline that
// heap_live_mb subtracts.
func heapLive() uint64 {
	runtime.GC()
	return newHeapReader().read()
}

// rtStats is a snapshot of the runtime counters the per-layer metrics
// take deltas of.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
	cpu        time.Duration // process user + system time
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var st rtStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		st.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		st.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		st.pauses = s[2].Value.Float64Histogram()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		st.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return st
}

// rtDelta is the runtime's activity between two snapshots, summed
// over rounds.
type rtDelta struct {
	allocBytes uint64
	gcCycles   uint64
	cpu        time.Duration
	// pauses counts GC pauses per bucket of pauseEdges.
	pauses     []uint64
	pauseEdges []float64
}

func deltaRuntime(a, b rtStats) rtDelta {
	d := rtDelta{allocBytes: b.allocBytes - a.allocBytes, gcCycles: b.gcCycles - a.gcCycles, cpu: b.cpu - a.cpu}
	if a.pauses != nil && b.pauses != nil && len(a.pauses.Counts) == len(b.pauses.Counts) {
		d.pauseEdges = b.pauses.Buckets
		d.pauses = make([]uint64, len(b.pauses.Counts))
		for i := range d.pauses {
			d.pauses[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		}
	}
	return d
}

func (d *rtDelta) add(o rtDelta) {
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.cpu += o.cpu
	if d.pauses == nil {
		d.pauses = make([]uint64, len(o.pauses))
		d.pauseEdges = o.pauseEdges
	}
	if len(d.pauses) == len(o.pauses) {
		for i, n := range o.pauses {
			d.pauses[i] += n
		}
	}
}

// pauseQuantile returns the q-quantile of the GC pauses, as the upper
// edge of the histogram bucket holding it.
func (d rtDelta) pauseQuantile(q float64) time.Duration {
	var total uint64
	for _, n := range d.pauses {
		total += n
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, n := range d.pauses {
		cum += n
		if cum >= need {
			edge := d.pauseEdges[i+1]
			if math.IsInf(edge, 1) {
				edge = d.pauseEdges[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// millis returns the samples' latencies in ms, sorted, keeping those
// keep selects.
func millis(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(s.d)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

const mib = 1 << 20

// endToEnd derives the end-to-end metrics of one untraced phase. The
// workload-specific ones (p99_ms, rows_per_s, write latencies) are
// returned alongside the gated ones.
func endToEnd(wl workload, ph *phase, heapBase uint64) map[string]metric {
	secs := ph.elapsed.Seconds()
	all := millis(ph.all, func(sample) bool { return true })
	out := map[string]metric{
		"qps":                {median(ph.roundQPS), "1/s"},
		"p50_ms":             {quantile(all, 0.5), "ms"},
		"p90_ms":             {quantile(all, 0.9), "ms"},
		"heap_live_mb":       {(median(ph.roundPeaks) - float64(heapBase)) / mib, "MB"},
		"failed_ratio":       {float64(ph.failed) / float64(ph.attempted), "ratio"},
		"samples":            {float64(len(all)), "count"},
		"cpu_ms_per_request": {float64(ph.runtime.cpu) / 1e6 / float64(len(ph.all)), "ms"},
	}
	// p99 only where at least ten samples lie beyond it; scan's long
	// queries never get there.
	if len(all) >= 1000 {
		out["p99_ms"] = metric{quantile(all, 0.99), "ms"}
	}
	if ph.rows > 0 {
		out["rows_per_s"] = metric{float64(ph.rows) / secs, "rows/s"}
	}
	if writes := millis(ph.all, func(s sample) bool { return s.q < 0 }); len(writes) > 0 {
		out["write_p50_ms"] = metric{quantile(writes, 0.5), "ms"}
		out["write_p99_ms"] = metric{quantile(writes, 0.99), "ms"}
		out["write_samples"] = metric{float64(len(writes)), "count"}
	}
	for q := range wl.queries() {
		lat := millis(ph.all, func(s sample) bool { return s.q == q })
		if len(lat) > 0 {
			out[fmt.Sprintf("p50_ms.Q%d", q+1)] = metric{quantile(lat, 0.5), "ms"}
		}
	}
	return out
}
