package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/obs"
	"github.com/dataspace/automed/internal/wrapper"
)

// One read path. Every read of a source object — a cache-miss fetch
// (evaluation and prefetch alike), a streamed scan, a breaker probe —
// starts in openRead and is settled exactly once by end. The read owns
// its bookkeeping: breaker admission and verdict, the per-source
// deadline, the StageFetch span, the wrapper's fetch stats, the
// per-source metrics and, for a materialised extent, the last-good
// copy.

// errBreakerOpen refuses a read without touching the source.
var errBreakerOpen = errors.New("breaker open")

// sourceRead is one admitted read of a source object.
type sourceRead struct {
	p   *Processor
	src source
	sc  hdm.Scheme
	br  *breaker
	// req is the requesting context (nil for context-free calls); ctx
	// is the read's own: it carries the span, the fetch stats and the
	// deadline, and end cancels it.
	req    context.Context
	ctx    context.Context
	cancel context.CancelFunc
	sp     *obs.Span
	fs     *obs.FetchStat
	start  time.Time
	// scn is the open scanner; it is nil when opening failed (err) or
	// the provider has no scanner and was read through Extent (val).
	scn   wrapper.Scanner
	val   iql.Value
	err   error
	ended bool
}

// openRead admits a read of one source object through its breaker and
// opens it: the provider's scanner under the read's context, or, for a
// provider without one, its Extent. An open breaker refuses the read
// with errBreakerOpen; any other failure is left on the read for the
// caller to settle. The SourceTimeout deadline bounds materialised
// reads only: a streamed scan lives as long as its consumer, which the
// request deadline bounds.
func (p *Processor) openRead(ctx context.Context, src source, sc hdm.Scheme, stream bool) (*sourceRead, error) {
	br := p.breakerFor(src.name)
	if br != nil {
		if proceed, _ := br.allow(); !proceed {
			if sp, _ := obs.StartSpan(ctx, obs.StageBreaker, src.name); sp != nil {
				sp.SetDetail(sc.Key())
				sp.End(nil)
			}
			return nil, fmt.Errorf("%w: %s", errBreakerOpen, br.lastError())
		}
	}
	r := &sourceRead{p: p, src: src, sc: sc, br: br, req: ctx, start: time.Now()}
	base := ctx
	if base == nil {
		base = context.Background()
	}
	r.sp, base = obs.StartSpan(base, obs.StageFetch, src.name)
	r.sp.SetDetail(sc.Key())
	r.sp.SetCache(obs.CacheMiss)
	base, r.fs = obs.BeginFetch(base)
	if !stream && br != nil && br.cfg.SourceTimeout > 0 {
		r.ctx, r.cancel = context.WithTimeout(base, br.cfg.SourceTimeout)
	} else {
		r.ctx, r.cancel = context.WithCancel(base)
	}
	if src.scan != nil {
		r.scn, r.err = src.scan.ExtentScanner(r.ctx, sc.Parts())
	} else {
		// The value passes through unchanged, so Void and Any keep
		// their kind.
		r.val, r.err = src.ext.Extent(sc.Parts())
	}
	return r, nil
}

// fetchExtent reads one source extent whole. It is the compute behind
// every source-extent cache miss, returning the extent's footprint as
// its cache cost.
func (p *Processor) fetchExtent(ctx context.Context, src source, sc hdm.Scheme) (iql.Value, int64, error) {
	r, err := p.openRead(ctx, src, sc, false)
	if err != nil {
		return iql.Value{}, 0, err
	}
	return r.materialise(nil)
}

// materialise completes the read as a whole extent — read holds rows
// already taken from the scanner, which head it — and settles it. A
// failed live read falls back to the wrapper's snapshot extent exactly
// as the wrapper's own Extent would (wrapper.Fallback). On success the
// extent becomes the last-good copy; fp is its footprint.
func (r *sourceRead) materialise(read []iql.Value) (v iql.Value, fp int64, err error) {
	v, err = r.val, r.err
	if err == nil && r.scn != nil {
		v, err = wrapper.Materialise(r.ctx, r.scn, read)
	}
	if err != nil {
		v, err = wrapper.Fallback(r.ctx, r.src.ext, r.sc.Parts(), err)
	}
	var rows int64
	if err == nil {
		fp = v.Footprint()
		if v.Kind == iql.KindBag {
			rows = int64(len(v.Items))
		}
	}
	r.end(err, rows, fp, false)
	if err != nil {
		return iql.Value{}, 0, err
	}
	r.p.noteGood(r.br, r.src.name+"\x00"+r.sc.Key(), v, fp)
	return v, fp, nil
}

// end settles the read exactly once: the breaker's verdict, the span,
// and the per-source metrics. pulled is the footprint of the rows read,
// reported as the read's bytes when the wrapper reported no wire bytes.
// A read its consumer abandoned, or one failed by its own request's
// cancellation, says nothing about the source: the breaker then only
// releases its probe slot.
func (r *sourceRead) end(err error, rows, pulled int64, abandoned bool) {
	if r.ended {
		return
	}
	r.ended = true
	r.cancel()
	if r.br != nil {
		if abandoned || (err != nil && r.req != nil && r.req.Err() != nil) {
			r.br.cancelProbe()
		} else {
			r.br.record(err == nil, err)
		}
	}
	bytes := r.fs.Bytes()
	if bytes == 0 && err == nil {
		bytes = pulled
	}
	r.sp.SetRows(rows)
	r.sp.SetBytes(bytes)
	r.sp.SetRetries(r.fs.Retries())
	r.sp.End(err)
	obs.SourcesFrom(r.req).Observe(r.src.name, r.src.kind, time.Since(r.start), rows, bytes, r.fs.Retries(), err)
}
