package query

import (
	"context"
	"strings"

	"github.com/dataspace/automed/internal/hdm"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/wrapper"
)

// This file is the query-layer half of the streaming extent pipeline:
// when the evaluator asks for a generator source that resolves to a
// single streaming-capable wrapper, the processor serves it as a
// pull-based iql.RowStream backed by the wrapper's paged Scanner
// instead of materialising the whole extent. Peak memory for a scan
// over an N-row source extent is then bounded by the scan buffer, not
// by N.
//
// Everything that relies on whole-extent values keeps its existing
// semantics byte-identically by falling back to the materialised path
// (ExtentStream returns ok=false): cached extents, computed virtual
// objects (bare renames — federation's include and rename transforms —
// chase through to their source), ambiguous references, non-streaming
// wrappers, snapshots (which go through Processor.Extent), and extents
// at or below the spill threshold — those are read through the scanner
// once, materialised, and cached exactly as a cache-miss fetch would
// have been. A streamed read is the same one read as a materialised
// one (read.go): a read refused by an open breaker or failed before the
// stream commits settles there once, and degrades as the materialised
// path would, without reading the source again.

// ScanSourcer is the pull-based scan extension an extent provider may
// implement; it is wrapper.ScanSourcer re-exported so registering code
// can name it without importing the wrapper package.
type ScanSourcer = wrapper.ScanSourcer

// DefaultScanBufferRows is the streaming pipeline's row window when
// Processor.ScanBuffer is unset: both the spill threshold below which
// extents are materialised and cached as before, and the capacity of
// the prefetching buffer between the scanner and the evaluator.
const DefaultScanBufferRows = 4096

// effectiveScanBuffer resolves the configured scan buffer: 0 means
// DefaultScanBufferRows, negative disables streaming entirely.
func (p *Processor) effectiveScanBuffer() int {
	switch {
	case p.ScanBuffer > 0:
		return p.ScanBuffer
	case p.ScanBuffer < 0:
		return 0
	}
	return DefaultScanBufferRows
}

// ExtentStream implements iql.StreamExtents for evaluation sessions.
// ok=false (with nil error) tells the evaluator to materialise through
// Extent instead, which owns error reporting for unknown and ambiguous
// references.
func (s *session) ExtentStream(parts []string) (iql.RowStream, bool, error) {
	return s.p.extentStream(s, parts)
}

func (p *Processor) extentStream(s *session, parts []string) (iql.RowStream, bool, error) {
	buf := p.effectiveScanBuffer()
	if buf <= 0 {
		return nil, false, nil
	}
	src, sc, deps, ok := p.resolveStreamable(s.scope(), parts)
	if !ok {
		return nil, false, nil
	}
	rs, ok, err := p.sourceStream(s, src, sc, buf)
	if err != nil || !ok {
		return nil, false, err
	}
	// Committed to streaming: record the same dependency keys the
	// materialised resolution would have.
	for _, d := range deps {
		s.dep(d)
	}
	return rs, true, nil
}

// maxRenameHops bounds the rename chase in resolveStreamable; chains
// longer than this (or cyclic ones) take the materialised path, whose
// recursion cut owns cycle handling.
const maxRenameHops = 8

// resolveStreamable resolves parts to a single streaming-capable
// source in exactly the order extentIn does (scope, virtual, global),
// additionally chasing virtual objects whose sole derivation is a bare
// scheme reference — the shape federation's include and rename
// transforms produce — so federated object names stream just like the
// source objects they alias. Everything else reports ok=false and
// takes the materialised path, which owns derivation unfolding, memo
// replay, and error reporting for unknown and ambiguous references.
// deps are the dependency keys the materialised resolution of the same
// chain would record (minus the ones sourceExtent adds itself, which
// sourceStream's caller mirrors).
func (p *Processor) resolveStreamable(scope string, parts []string) (source, hdm.Scheme, []string, bool) {
	var deps []string
	for hop := 0; hop <= maxRenameHops; hop++ {
		// 1. The current scope's source schema wins for unqualified
		// references.
		if scope != "" {
			if src, obj, ok := p.resolveIn(scope, parts); ok {
				if src.scan == nil || !src.streams {
					return source{}, hdm.Scheme{}, nil, false
				}
				return src, obj, append(deps, obj.Key()), true
			}
		}
		// 2. Virtual objects: chase a sole full-extent bare-rename
		// derivation; any other shape (computed body, Lower bound,
		// several derivations, memoised extent) materialises.
		key := strings.Join(parts, "|")
		p.mu.Lock()
		derivs, virtual := p.defs[key]
		var d Derivation
		if virtual && len(derivs) == 1 {
			d = derivs[0]
		}
		p.mu.Unlock()
		if virtual {
			if len(derivs) != 1 || d.Lower || p.memo.Peek(key) {
				return source{}, hdm.Scheme{}, nil, false
			}
			ref, ok := d.Query.(*iql.SchemeRef)
			if !ok {
				return source{}, hdm.Scheme{}, nil, false
			}
			// The virtual key heads its dependency set exactly as in
			// virtualExtent: a new derivation registered for it must
			// invalidate whatever this stream feeds.
			deps = append(deps, key)
			parts = ref.Parts
			scope = d.Scope
			continue
		}
		// 3. Unambiguous global source resolution.
		hits := p.resolveGlobal(parts)
		if len(hits) != 1 {
			return source{}, hdm.Scheme{}, nil, false
		}
		src, obj := hits[0].src, hits[0].sc
		if src.scan == nil || !src.streams {
			return source{}, hdm.Scheme{}, nil, false
		}
		return src, obj, append(deps, key, obj.Key()), true
	}
	return source{}, hdm.Scheme{}, nil, false
}

// sourceStream opens a read of one source object and decides, through
// a spill probe of buf+1 rows, whether the extent is worth streaming.
// Small extents are materialised from the probe and cached, then served
// from the cache by the materialised path (ok=false). A read refused or
// failed before the stream commits is settled once and served as the
// materialised path would serve it (failedRead): a stream over the
// stale extent, or the error.
func (p *Processor) sourceStream(s *session, src source, sc hdm.Scheme, buf int) (iql.RowStream, bool, error) {
	key := sc.Key()
	if p.srcExt.Peek(src.name + "\x00" + key) {
		return nil, false, nil // cached: the materialised path serves it without touching the source
	}
	r, err := p.openRead(s.ctx, src, sc, true)
	if err != nil {
		return p.failedStream(s, src, sc, err)
	}

	// Spill probe: read up to buf+1 rows. Exhausting the scanner within
	// buf rows means the extent is small enough to materialise.
	// The probe grows by append: a small extent is cached as this very
	// slice, which must not pin a buffer-sized backing array.
	var probe []iql.Value
	for r.err == nil && len(probe) <= buf && r.scn.Next(r.ctx) {
		probe = append(probe, r.scn.Row())
	}
	if len(probe) <= buf {
		// Small (or failed) extent: materialise and cache it, so the
		// materialised path serves it byte-identically to a plain
		// cache-miss fetch.
		v, fp, err := r.materialise(probe)
		if err != nil {
			return p.failedStream(s, src, sc, err)
		}
		p.srcExt.Put(src.name+"\x00"+key, v, fp, []string{key})
		return nil, false, nil
	}

	rows, slots := streamBatching(buf)
	st := &sourceStream{
		batch:     probe,
		batchRows: rows,
		ch:        make(chan []iql.Value, slots),
		free:      make(chan []iql.Value, slots+2),
		done:      make(chan struct{}),
		pulled:    iql.BagOf(probe).Footprint(),
		r:         r,
	}
	go st.pump(r.ctx)
	return st, true, nil
}

// failedStream serves a read that failed before its stream committed
// exactly as the materialised path serves a failed read: the stale
// extent, as a stream over its rows, or the error.
func (p *Processor) failedStream(s *session, src source, sc hdm.Scheme, err error) (iql.RowStream, bool, error) {
	v, err := p.failedRead(s, src, sc, err)
	if err != nil {
		return nil, false, err
	}
	els, err := v.Elements()
	if err != nil {
		return nil, false, err
	}
	return &sliceStream{items: els}, true, nil
}

// sliceStream serves an already-materialised extent as a RowStream.
type sliceStream struct {
	items []iql.Value
	cur   iql.Value
}

func (st *sliceStream) Next() bool {
	if len(st.items) == 0 {
		return false
	}
	st.cur, st.items = st.items[0], st.items[1:]
	return true
}

func (st *sliceStream) Row() iql.Value { return st.cur }
func (st *sliceStream) Err() error     { return nil }
func (st *sliceStream) Close() error {
	st.items = nil
	return nil
}

// streamBatches is how many batches the pump's prefetch window is cut
// into. The pump hands rows to the evaluator a batch at a time, so the
// channel hand-off costs one send per batch instead of one per row,
// while the window stays at the scan buffer's row count.
const streamBatches = 16

// streamBatching derives the pump's batch size from the scan buffer,
// and the channel capacity in batches that keeps the pump's window (a
// full channel plus the batch the pump is filling) within buf rows.
func streamBatching(buf int) (rows, slots int) {
	rows = max(buf/streamBatches, 1)
	return rows, buf/rows - 1
}

// sourceStream is the iql.RowStream the evaluator consumes: the spill
// probe's rows first, then batches of rows pumped from the scanner
// through a bounded channel by a prefetch goroutine.
//
// Residency: rows pulled from the scanner but not yet returned by Next
// number at most 2*buf+1 — the probe's buf+1 rows plus the pump's
// window of buf rows (slots full batches in the channel and the one it
// is filling). Once the probe is consumed, the bound is buf plus the
// unread rest of the batch Next is walking. Next zeroes each slot as it
// reads it, so consumed rows are never pinned by the stream, and spent
// batches return to the pump through the free list: the steady state
// allocates no batches.
type sourceStream struct {
	// batch is the rows Next is walking (the probe first, then pumped
	// batches); i indexes the next unread row. Pumped batches have
	// capacity batchRows, which the probe's buf+1 always exceeds.
	batch     []iql.Value
	i         int
	batchRows int
	ch        chan []iql.Value
	// free returns spent batches to the pump. It has room for every
	// batch that can exist (slots queued, one being filled, one being
	// read), so recycling never drops one.
	free chan []iql.Value
	cur  iql.Value

	// ferr is the pump's terminal error and pulled the footprint of
	// every row it read (the probe's included); both are written before
	// ch and done are closed, and the consumer reads them only after
	// observing a close, so the channels provide the happens-before
	// edge.
	ferr   error
	pulled int64
	done   chan struct{}

	// r is the stream's read: its scanner feeds the pump, and it is
	// settled once the pump exits or the consumer walks away.
	r *sourceRead

	rows   int64
	err    error
	closed bool
}

// pump feeds the scanner's rows, a batch at a time, into the bounded
// channel until the scanner ends or the stream is cancelled. A partial
// last batch is delivered before the scanner's verdict, so the
// evaluator sees the same row sequence as a row-at-a-time hand-off.
func (st *sourceStream) pump(ctx context.Context) {
	var ferr error
	scn := st.r.scn
	b := st.newBatch()
	for scn.Next(ctx) {
		b = append(b, scn.Row())
		if len(b) == cap(b) {
			if ferr = st.send(ctx, b); ferr != nil {
				break
			}
			b = st.newBatch()
		}
	}
	if ferr == nil && len(b) > 0 {
		ferr = st.send(ctx, b)
	}
	if ferr == nil {
		ferr = scn.Err()
	}
	st.ferr = ferr
	close(st.ch)
	close(st.done)
}

// newBatch takes an empty batch from the free list, or allocates one
// while the pipeline is still filling.
func (st *sourceStream) newBatch() []iql.Value {
	select {
	case b := <-st.free:
		return b
	default:
		return make([]iql.Value, 0, st.batchRows)
	}
}

// send hands one batch to the consumer, accounting its footprint.
func (st *sourceStream) send(ctx context.Context, b []iql.Value) error {
	for _, v := range b {
		st.pulled += v.Footprint()
	}
	select {
	case st.ch <- b:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (st *sourceStream) Next() bool {
	if st.closed || st.err != nil {
		return false
	}
	for st.i >= len(st.batch) {
		// The current batch is spent (and zeroed): recycle a pumped
		// one, and let the probe go as soon as it is consumed.
		if cap(st.batch) == st.batchRows {
			select {
			case st.free <- st.batch[:0]:
			default:
			}
		}
		st.batch, st.i = nil, 0
		b, ok := <-st.ch
		if !ok {
			st.terminate(st.ferr)
			return false
		}
		st.batch = b
	}
	st.cur = st.batch[st.i]
	st.batch[st.i] = iql.Value{}
	st.i++
	st.rows++
	return true
}

func (st *sourceStream) Row() iql.Value { return st.cur }

func (st *sourceStream) Err() error { return st.err }

// terminate settles the stream after the pump exits: releases the
// scanner and records the scan's outcome.
func (st *sourceStream) terminate(ferr error) {
	st.err = ferr
	st.r.scn.Close()
	st.r.end(ferr, st.rows, st.pulled, false)
}

// Close releases the stream at any point; it is idempotent and safe
// after exhaustion. Closing before exhaustion cancels the pump, waits
// for it to exit, and releases the scanner; no breaker outcome is
// recorded then, because an abandoned scan says nothing about the
// source. (cancel, the scanner's Close, and end are all idempotent,
// so a stream already settled by terminate is a no-op here.)
func (st *sourceStream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	st.r.cancel()
	<-st.done
	st.r.scn.Close()
	st.r.end(nil, st.rows, st.pulled, true)
	st.batch = nil
	return nil
}
