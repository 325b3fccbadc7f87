package wrapper

import (
	"context"
	"fmt"
	"strings"

	"github.com/dataspace/automed/internal/iql"
)

// Scanner streams one object's extent row by row: callers drive the
// iteration, so only a bounded window of the extent is resident at a
// time, which is what lets one daemon host million-row remote tables
// with flat memory.
//
// The protocol follows database/sql.Rows: Next advances to the next row
// (fetching more data from the backend as needed) and reports false at
// the end of the extent or on error; Row returns the current row after
// a true Next; Err distinguishes exhaustion from failure after Next
// returns false; Close releases backend resources and is safe to call
// at any point, including mid-stream. Next observes ctx, so a cancelled
// request abandons the remaining pages instead of draining them.
//
// A Scanner is single-use and not safe for concurrent use.
type Scanner interface {
	Next(ctx context.Context) bool
	Row() iql.Value
	Err() error
	Close() error
}

// ScanSourcer is a wrapper's context-aware read: ExtentScanner returns
// a Scanner over the extent of the object referenced by parts. Every
// wrapper in this package implements it; wrappers over remote backends
// (SQL, REST) stream pages from the wire, and their Extent is the
// scanner drained (Drain), while local wrappers adapt their
// materialised extents. The scanner yields exactly the rows Extent
// returns, in the same order — the conformance suite enforces this
// byte-for-byte.
type ScanSourcer interface {
	ExtentScanner(ctx context.Context, parts []string) (Scanner, error)
}

// sliceScanner adapts a materialised extent to the Scanner interface.
type sliceScanner struct {
	items  []iql.Value
	i      int
	cur    iql.Value
	err    error
	closed bool
}

// NewSliceScanner returns a Scanner over an already-materialised row
// slice. Local wrappers (relational, static, XML) use it to satisfy
// ScanSourcer; it is also the degraded path of remote wrappers serving
// snapshot-fallback extents.
func NewSliceScanner(items []iql.Value) Scanner {
	return &sliceScanner{items: items}
}

func (s *sliceScanner) Next(ctx context.Context) bool {
	if s.closed || s.err != nil || s.i >= len(s.items) {
		return false
	}
	if err := ctx.Err(); err != nil {
		s.err = err
		return false
	}
	s.cur = s.items[s.i]
	s.i++
	return true
}

func (s *sliceScanner) Row() iql.Value { return s.cur }
func (s *sliceScanner) Err() error     { return s.err }
func (s *sliceScanner) Close() error {
	s.closed = true
	s.items = nil
	return nil
}

// materialisedScanner serves a wrapper's extent through the Scanner
// interface by fetching it whole first. It is how wrappers whose
// backends cannot page (in-memory tables, parsed documents) satisfy
// ScanSourcer.
func materialisedScanner(w Wrapper, parts []string) (Scanner, error) {
	v, err := w.Extent(parts)
	if err != nil {
		return nil, err
	}
	return valueScanner(w.SchemaName(), parts, v)
}

// valueScanner serves an already-materialised extent as a Scanner.
func valueScanner(name string, parts []string, v iql.Value) (Scanner, error) {
	els, err := v.Elements()
	if err != nil {
		return nil, fmt.Errorf("wrapper: %s: extent of <<%s>> is not a collection: %w",
			name, strings.Join(parts, ", "), err)
	}
	return NewSliceScanner(els), nil
}

// Drain is every wrapper's materialised read: it opens w's scanner over
// the object referenced by parts, materialises it, and, when the live
// read fails while ctx is still live, serves the wrapper's snapshot
// fallback instead (see Fallback). Extent on the scanning wrappers is
// Drain under context.Background().
func Drain(ctx context.Context, w ScanSourcer, parts []string) (iql.Value, error) {
	scn, err := w.ExtentScanner(ctx, parts)
	var v iql.Value
	if err == nil {
		v, err = Materialise(ctx, scn, nil)
	}
	if err != nil {
		return Fallback(ctx, w, parts, err)
	}
	return v, nil
}

// Materialise drains scn into the bag of its whole extent and closes
// it; read holds rows already taken from scn, which head the bag.
func Materialise(ctx context.Context, scn Scanner, read []iql.Value) (iql.Value, error) {
	defer scn.Close()
	var err error
	if d, ok := scn.(drainer); ok {
		read, err = d.drain(ctx, read)
	} else {
		for scn.Next(ctx) {
			read = append(read, scn.Row())
		}
		err = scn.Err()
	}
	if err != nil {
		return iql.Value{}, err
	}
	return iql.BagOf(read), nil
}

// drainer is implemented by scanners that can append all their
// remaining rows at once, sparing Materialise a row-by-row copy.
type drainer interface {
	drain(ctx context.Context, out []iql.Value) ([]iql.Value, error)
}

// drain hands over the remaining items, without copying when out is
// empty.
func (s *sliceScanner) drain(ctx context.Context, out []iql.Value) ([]iql.Value, error) {
	if s.err != nil {
		return nil, s.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rest := s.items[s.i:]
	s.i = len(s.items)
	if len(out) == 0 {
		return rest, nil
	}
	return append(out, rest...), nil
}

// snapshotFallback is implemented by the remote wrappers (SQL, REST)
// restored from a snapshot: they carry its materialised extents for the
// time their backend is unreachable.
type snapshotFallback interface {
	snapshotExtent(parts []string) (iql.Value, bool)
}

// Fallback settles a failed live read (err) of the object referenced by
// parts: while ctx is still live, a wrapper carrying a snapshot extent
// for the object serves it; otherwise err stands. A cancelled read never
// falls back, so deadlines surface as errors.
func Fallback(ctx context.Context, w any, parts []string, err error) (iql.Value, error) {
	if sf, ok := w.(snapshotFallback); ok && ctx.Err() == nil {
		if v, ok := sf.snapshotExtent(parts); ok {
			return v, nil
		}
	}
	return iql.Value{}, err
}

// ExtentScanner implements ScanSourcer over the in-memory database.
func (w *Relational) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return materialisedScanner(w, parts)
}

// ExtentScanner implements ScanSourcer over the fixed extents.
func (w *Static) ExtentScanner(ctx context.Context, parts []string) (Scanner, error) {
	return materialisedScanner(w, parts)
}
