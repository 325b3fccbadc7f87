// Package iql implements IQL, the functional comprehension-based query
// language of the AutoMed system (Jasper et al.), as used by the paper
// "Intersection Schemas as a Dataspace Integration Technique" (EDBT 2014).
//
// IQL values are scalars (integers, floats, strings, booleans), tuples
// written {e1, …, en}, and bags (multisets) written [e1, …, en]. Queries
// are comprehensions [head | qual1; …; qualn] whose qualifiers are
// generators (pattern <- collection) and filters (boolean expressions).
// The distinguished constants Void and Any denote the empty collection
// and the unbounded collection, and Range ql qu pairs a lower and upper
// bound for extend/contract transformations.
package iql

import (
	"fmt"
	"strings"
)

// Kind discriminates Value representations.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota // absent value (internal)
	KindBool
	KindInt
	KindFloat
	KindString
	KindTuple
	KindBag
	KindVoid // the constant Void: the empty collection / no information
	KindAny  // the constant Any: the unbounded collection
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTuple:
		return "tuple"
	case KindBag:
		return "bag"
	case KindVoid:
		return "Void"
	case KindAny:
		return "Any"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an IQL runtime value. The zero Value is the null value.
// Values are treated as immutable; Items must not be mutated after
// construction.
type Value struct {
	Kind  Kind
	B     bool
	I     int64
	F     float64
	S     string
	Items []Value // tuple components or bag elements
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the conventional String method.)
func String_(s string) Value { return Value{Kind: KindString, S: s} }

// Str is shorthand for String_.
func Str(s string) Value { return String_(s) }

// Tuple returns a tuple value of the given components.
func Tuple(items ...Value) Value {
	return Value{Kind: KindTuple, Items: items}
}

// Bag returns a bag (multiset) of the given elements.
func Bag(items ...Value) Value {
	return Value{Kind: KindBag, Items: items}
}

// BagOf wraps an existing slice as a bag without copying.
func BagOf(items []Value) Value { return Value{Kind: KindBag, Items: items} }

// Void returns the Void constant (the empty collection).
func Void() Value { return Value{Kind: KindVoid} }

// Any returns the Any constant (the unbounded collection).
func Any() Value { return Value{Kind: KindAny} }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// valueOverhead approximates the in-memory size of one Value struct
// header (kind + scalar fields + string and slice headers on 64-bit).
const valueOverhead = 64

// Footprint estimates the value's in-memory size in bytes: the struct
// header plus string payloads, recursively over tuple components and
// bag elements. It is the cost measure used by the size-aware caches to
// enforce their byte budgets; an estimate is sufficient because budgets
// bound aggregate memory, not exact allocations.
func (v Value) Footprint() int64 {
	n := int64(valueOverhead + len(v.S))
	for _, it := range v.Items {
		n += it.Footprint()
	}
	return n
}

// IsCollection reports whether v can be enumerated: a bag or Void.
func (v Value) IsCollection() bool { return v.Kind == KindBag || v.Kind == KindVoid }

// Elements returns the elements of a bag; Void yields nil. It is an
// error to call Elements on a non-collection.
func (v Value) Elements() ([]Value, error) {
	switch v.Kind {
	case KindBag:
		return v.Items, nil
	case KindVoid:
		return nil, nil
	case KindAny:
		return nil, fmt.Errorf("iql: cannot enumerate Any")
	default:
		return nil, fmt.Errorf("iql: %s is not a collection", v.Kind)
	}
}

// Len returns the number of elements of a bag (0 for Void) or components
// of a tuple; -1 otherwise.
func (v Value) Len() int {
	switch v.Kind {
	case KindBag, KindTuple:
		return len(v.Items)
	case KindVoid:
		return 0
	default:
		return -1
	}
}

// Key returns a canonical encoding of the value such that two values are
// Equal iff their keys are identical. Bags are canonicalised by sorting
// element keys, so bags compare as multisets.
func (v Value) Key() string {
	return string(v.appendKey(nil))
}

// Equal reports whether two values are equal; bags compare as multisets,
// and integral floats equal same-valued ints. Scalar and tuple
// comparisons take allocation-free fast paths; bags are compared as
// hash-bucketed multisets (see bagEqual) — no canonical key strings are
// built anywhere.
//
// NaN is never equal to anything, itself included, at every nesting
// depth. (The '=' operator always behaved this way for top-level
// scalars; elements inside bags historically compared via canonical
// key strings, which made NaN self-equal there only. Equality is now
// uniformly IEEE-like instead of depth-dependent.)
func (v Value) Equal(w Value) bool {
	switch {
	case v.Kind == KindInt && w.Kind == KindInt:
		return v.I == w.I
	case v.Kind == KindString && w.Kind == KindString:
		return v.S == w.S
	case v.Kind == KindBool && w.Kind == KindBool:
		return v.B == w.B
	case (v.Kind == KindInt || v.Kind == KindFloat) && (w.Kind == KindInt || w.Kind == KindFloat):
		return v.AsFloat() == w.AsFloat()
	case v.Kind == KindTuple && w.Kind == KindTuple:
		if len(v.Items) != len(w.Items) {
			return false
		}
		for i := range v.Items {
			if !v.Items[i].Equal(w.Items[i]) {
				return false
			}
		}
		return true
	}
	if v.Kind != w.Kind {
		// Cross-kind numeric equality was handled above; any other kind
		// mix can never be equal.
		return false
	}
	switch v.Kind {
	case KindBag:
		return bagEqual(v.Items, w.Items)
	case KindNull, KindVoid, KindAny:
		return true
	}
	return false
}

// Compare orders two scalar values. It returns an error for incomparable
// kinds. Numeric kinds compare numerically across int/float.
func (v Value) Compare(w Value) (int, error) {
	if (v.Kind == KindInt || v.Kind == KindFloat) && (w.Kind == KindInt || w.Kind == KindFloat) {
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind == KindString && w.Kind == KindString {
		return strings.Compare(v.S, w.S), nil
	}
	if v.Kind == KindBool && w.Kind == KindBool {
		x, y := 0, 0
		if v.B {
			x = 1
		}
		if w.B {
			y = 1
		}
		return x - y, nil
	}
	return 0, fmt.Errorf("iql: cannot compare %s with %s", v.Kind, w.Kind)
}

// AsFloat converts a numeric value to float64 (0 otherwise).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return 0
}

// Union returns the bag union (additive multiset union, the AutoMed
// default) of two collections. Void acts as the identity.
func Union(a, b Value) (Value, error) {
	ae, err := a.Elements()
	if err != nil {
		return Value{}, err
	}
	be, err := b.Elements()
	if err != nil {
		return Value{}, err
	}
	out := make([]Value, 0, len(ae)+len(be))
	out = append(out, ae...)
	out = append(out, be...)
	return BagOf(out), nil
}

// Distinct returns a bag with duplicate elements removed, preserving
// first-occurrence order. Duplicates are detected through a hash-
// bucketed ValueSet, so no canonical key strings are built.
func Distinct(v Value) (Value, error) {
	els, err := v.Elements()
	if err != nil {
		return Value{}, err
	}
	seen := NewValueSet(len(els))
	out := make([]Value, 0, len(els))
	for _, e := range els {
		if seen.Add(e) {
			out = append(out, e)
		}
	}
	return BagOf(out), nil
}

// SortBag returns a bag with elements in canonical key order, for
// deterministic display. Each element's key is computed exactly once,
// into one shared arena (see canonicalOrder), and the order is that of
// a stable sort by key: elements whose keys tie (e.g. 5 and 5.0) keep
// their bag order.
func SortBag(v Value) (Value, error) {
	els, err := v.Elements()
	if err != nil {
		return Value{}, err
	}
	out := make([]Value, len(els))
	for n, i := range canonicalOrder(els).idx {
		out[n] = els[i]
	}
	return BagOf(out), nil
}

// String renders the value in IQL source syntax (strings single-quoted,
// tuples braced, bags bracketed).
func (v Value) String() string {
	// About 32 bytes per element spares most growth copies.
	return string(v.AppendText(make([]byte, 0, 16+32*len(v.Items))))
}
