package iql

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Append-based value writers: the canonical key, the IQL source text
// and the canonical JSON form of a value, each written straight into a
// caller's byte slice. Scalars go through strconv.Append*, strings that
// need no escaping are copied in one append, and bags are put in
// canonical order through one helper (canonicalOrder), so the key
// order, SortBag and the JSON writer cannot drift apart.

// appendKey appends the canonical key of v (see Key).
func (v Value) appendKey(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, 'N')
	case KindBool:
		if v.B {
			return append(b, "b1"...)
		}
		return append(b, "b0"...)
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.I, 10)
	case KindFloat:
		// Integral floats compare equal to ints of the same value so
		// that numeric joins behave as users expect.
		if v.F == math.Trunc(v.F) && !math.IsInf(v.F, 0) && math.Abs(v.F) < 1e15 {
			return strconv.AppendInt(append(b, 'i'), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(b, 'f'), v.F, 'g', -1, 64)
	case KindString:
		b = strconv.AppendInt(append(b, 's'), int64(len(v.S)), 10)
		return append(append(b, ':'), v.S...)
	case KindTuple:
		b = append(b, "t("...)
		for i, it := range v.Items {
			if i > 0 {
				b = append(b, ',')
			}
			b = it.appendKey(b)
		}
		return append(b, ')')
	case KindBag:
		b = append(b, "B["...)
		ord := canonicalOrder(v.Items)
		for n, i := range ord.idx {
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, ord.key(i)...)
		}
		return append(b, ']')
	case KindVoid:
		return append(b, 'V')
	case KindAny:
		return append(b, 'A')
	}
	return b
}

// bagOrder is the canonical order of a run of values: every element's
// key, built once into one arena, and the element indexes sorted by key.
type bagOrder struct {
	arena []byte
	ends  []int // ends[i] is the arena offset just past key i
	idx   []int // element indexes in canonical order
}

func (o *bagOrder) key(i int) []byte {
	lo := 0
	if i > 0 {
		lo = o.ends[i-1]
	}
	return o.arena[lo:o.ends[i]]
}

// canonicalOrder sorts els by canonical key. Ties (equal keys, such as
// 5 and 5.0) break on the element index, so the order is exactly that of
// a stable sort by key: elements that tie keep their bag order.
func canonicalOrder(els []Value) bagOrder {
	n := len(els)
	ints := make([]int, 2*n)
	o := bagOrder{arena: make([]byte, 0, 16*n), ends: ints[:n:n], idx: ints[n:]}
	for i, e := range els {
		o.arena = e.appendKey(o.arena)
		o.ends[i] = len(o.arena)
		o.idx[i] = i
	}
	slices.SortFunc(o.idx, func(a, b int) int {
		if c := bytes.Compare(o.key(a), o.key(b)); c != 0 {
			return c
		}
		return a - b
	})
	return o
}

// AppendText appends v in IQL source syntax, as String renders it.
func (v Value) AppendText(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, "null"...)
	case KindBool:
		if v.B {
			return append(b, "True"...)
		}
		return append(b, "False"...)
	case KindInt:
		return strconv.AppendInt(b, v.I, 10)
	case KindFloat:
		start := len(b)
		b = strconv.AppendFloat(b, v.F, 'g', -1, 64)
		for _, c := range b[start:] {
			if c == '.' || c == 'e' || c == 'E' {
				return b
			}
		}
		return append(b, ".0"...)
	case KindString:
		return appendQuoted(b, v.S)
	case KindTuple:
		return appendTextItems(append(b, '{'), v.Items, '}')
	case KindBag:
		return appendTextItems(append(b, '['), v.Items, ']')
	case KindVoid:
		return append(b, "Void"...)
	case KindAny:
		return append(b, "Any"...)
	}
	return b
}

func appendTextItems(b []byte, items []Value, closer byte) []byte {
	for i, it := range items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = it.AppendText(b)
	}
	return append(b, closer)
}

// appendQuoted appends s as a single-quoted IQL string literal,
// escaping backslashes and quotes so that rendering is injective and
// re-parseable.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '\'')
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '\'' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', c)
			start = i + 1
		}
	}
	b = append(b, s[start:]...)
	return append(b, '\'')
}

// AppendJSON appends the canonical JSON form of v: scalars as JSON
// scalars, tuples as {"tuple":[...]}, bags as {"bag":[...]} with
// elements in canonical key order (bags are multisets, so a
// deterministic order is free to choose and keeps answers stable), and
// Void/Any as {"const":...}. Floats use the shortest round-trip form
// with an exponent below 1e-6 and from 1e21 up, and strings escape only
// what JSON requires (no HTML escaping), both as encoding/json does.
// JSON has no NaN or infinities: such a float is an error.
func AppendJSON(b []byte, v Value) ([]byte, error) {
	var err error
	switch v.Kind {
	case KindNull:
		return append(b, "null"...), nil
	case KindBool:
		return strconv.AppendBool(b, v.B), nil
	case KindInt:
		return strconv.AppendInt(b, v.I, 10), nil
	case KindFloat:
		return appendJSONFloat(b, v.F)
	case KindString:
		return AppendJSONString(b, v.S), nil
	case KindTuple:
		b = append(b, `{"tuple":[`...)
		for i, it := range v.Items {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = AppendJSON(b, it); err != nil {
				return b, err
			}
		}
		return append(b, "]}"...), nil
	case KindBag:
		b = append(b, `{"bag":[`...)
		for n, i := range canonicalOrder(v.Items).idx {
			if n > 0 {
				b = append(b, ',')
			}
			if b, err = AppendJSON(b, v.Items[i]); err != nil {
				return b, err
			}
		}
		return append(b, "]}"...), nil
	case KindVoid:
		return append(b, `{"const":"Void"}`...), nil
	case KindAny:
		return append(b, `{"const":"Any"}`...), nil
	}
	return AppendJSONString(b, v.String()), nil
}

func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// A one-digit negative exponent drops its padding: e-07 → e-7.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal. Quotes,
// backslashes and control characters are escaped, invalid UTF-8 becomes
// U+FFFD, and U+2028/U+2029 are escaped for JavaScript safety; '<', '>'
// and '&' are left alone.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
