package iql

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Reference implementations of the canonical key, the IQL text and the
// canonical JSON that the append-based writers (render.go) replaced:
// a strings.Builder key and text writer, a decorate-stable-sort bag
// order, and a map[string]any tree encoded by encoding/json. The
// writers must match them byte for byte.

func refKey(v Value) string {
	var b strings.Builder
	refWriteKey(v, &b)
	return b.String()
}

func refWriteKey(v Value, b *strings.Builder) {
	switch v.Kind {
	case KindNull:
		b.WriteString("N")
	case KindBool:
		if v.B {
			b.WriteString("b1")
		} else {
			b.WriteString("b0")
		}
	case KindInt:
		b.WriteString("i")
		b.WriteString(strconv.FormatInt(v.I, 10))
	case KindFloat:
		if v.F == math.Trunc(v.F) && !math.IsInf(v.F, 0) && math.Abs(v.F) < 1e15 {
			b.WriteString("i")
			b.WriteString(strconv.FormatInt(int64(v.F), 10))
			return
		}
		b.WriteString("f")
		b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
	case KindString:
		b.WriteString("s")
		b.WriteString(strconv.Itoa(len(v.S)))
		b.WriteString(":")
		b.WriteString(v.S)
	case KindTuple:
		b.WriteString("t(")
		for i, it := range v.Items {
			if i > 0 {
				b.WriteString(",")
			}
			refWriteKey(it, b)
		}
		b.WriteString(")")
	case KindBag:
		keys := make([]string, len(v.Items))
		for i, it := range v.Items {
			keys[i] = refKey(it)
		}
		sort.Strings(keys)
		b.WriteString("B[")
		b.WriteString(strings.Join(keys, ","))
		b.WriteString("]")
	case KindVoid:
		b.WriteString("V")
	case KindAny:
		b.WriteString("A")
	}
}

func refSortBag(els []Value) []Value {
	out := append([]Value(nil), els...)
	sort.SliceStable(out, func(i, j int) bool { return refKey(out[i]) < refKey(out[j]) })
	return out
}

var refEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

func refText(v Value) string {
	var b strings.Builder
	refWriteText(v, &b)
	return b.String()
}

func refWriteText(v Value, b *strings.Builder) {
	switch v.Kind {
	case KindNull:
		b.WriteString("null")
	case KindBool:
		if v.B {
			b.WriteString("True")
		} else {
			b.WriteString("False")
		}
	case KindInt:
		b.WriteString(strconv.FormatInt(v.I, 10))
	case KindFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(".0")
		}
	case KindString:
		b.WriteString("'" + refEscaper.Replace(v.S) + "'")
	case KindTuple, KindBag:
		open, closer := "{", "}"
		if v.Kind == KindBag {
			open, closer = "[", "]"
		}
		b.WriteString(open)
		for i, it := range v.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			refWriteText(it, b)
		}
		b.WriteString(closer)
	case KindVoid:
		b.WriteString("Void")
	case KindAny:
		b.WriteString("Any")
	}
}

func refJSONShape(v Value) any {
	switch v.Kind {
	case KindNull:
		return nil
	case KindBool:
		return v.B
	case KindInt:
		return v.I
	case KindFloat:
		return v.F
	case KindString:
		return v.S
	case KindTuple, KindBag:
		els, tag := v.Items, "tuple"
		if v.Kind == KindBag {
			els, tag = refSortBag(v.Items), "bag"
		}
		items := make([]any, len(els))
		for i, it := range els {
			items[i] = refJSONShape(it)
		}
		return map[string]any{tag: items}
	case KindVoid:
		return map[string]any{"const": "Void"}
	case KindAny:
		return map[string]any{"const": "Any"}
	}
	return v.String()
}

func refJSON(v Value) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(refJSONShape(v)); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// renderFloats straddle the writers' format switches: encoding/json's
// exponent cut-offs at 1e-6 and 1e21, the key's integral-float cut-off
// at 1e15, signed zero and the smallest subnormal.
var renderFloats = []float64{
	0, negZero(), 5e-324, -5e-324, 1e-7, 1e-6, math.Nextafter(1e-6, 0),
	-1e-6, 1.5e-6, 1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1.5e21,
	1e15, math.Nextafter(1e15, 0), 1e15 + 2, 3, 3.5, -2.25, 0.1,
	123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64 * 3,
}

// renderStrings hold every class of byte the string writers treat
// specially: quotes, backslashes, control characters, U+2028/U+2029,
// invalid UTF-8, HTML-significant characters and multi-byte runes.
var renderStrings = []string{
	"", "a", "abc", `"`, `\`, `'`, "\x00", "\x01", "\x1f", "\b", "\f",
	"\n", "\r", "\t", "\x7f", "\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80",
	"<", "&", ">", "<&>", "\u00e9", "\u65e5\u672c", "\U0001F600", "\ufffd",
}

func genRenderValue(r *rand.Rand, depth int) Value {
	k := r.Intn(10)
	if depth <= 0 && k >= 7 {
		k = r.Intn(7)
	}
	switch k {
	case 0:
		switch r.Intn(4) {
		case 0:
			return Null()
		case 1:
			return Void()
		case 2:
			return Any()
		}
		return Bool(r.Intn(2) == 0)
	case 1, 2:
		return Int(int64(r.Intn(7)) - 3)
	case 3:
		f := renderFloats[r.Intn(len(renderFloats))]
		if r.Intn(3) == 0 {
			f = r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
		}
		return Float(f)
	case 4, 5, 6:
		n := r.Intn(4)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(renderStrings[r.Intn(len(renderStrings))])
		}
		return Str(b.String())
	case 7:
		items := make([]Value, r.Intn(4))
		for i := range items {
			items[i] = genRenderValue(r, depth-1)
		}
		return Tuple(items...)
	}
	// Bags, with repeated elements so that key ties are common.
	items := make([]Value, r.Intn(6))
	for i := range items {
		if i > 0 && r.Intn(3) == 0 {
			items[i] = items[r.Intn(i)]
		} else {
			items[i] = genRenderValue(r, depth-1)
		}
	}
	return BagOf(items)
}

func TestAppendWritersMatchReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		v := genRenderValue(r, 3)
		want, wantErr := refJSON(v)
		got, err := AppendJSON(nil, v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: AppendJSON error %v, reference error %v", refText(v), err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendJSON\n got %s\nwant %s", refText(v), got, want)
		}
		if err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: AppendJSON error %q, reference %q", refText(v), err, wantErr)
		}
		if got, want := v.String(), refText(v); got != want {
			t.Fatalf("String\n got %s\nwant %s", got, want)
		}
		if got, want := v.Key(), refKey(v); got != want {
			t.Fatalf("%s: Key\n got %q\nwant %q", refText(v), got, want)
		}
	}
}

func TestCanonicalOrderBreaksTiesByBagOrder(t *testing.T) {
	// Int(0)/Float(-0) and Int(3)/Float(3.0) share keys; they must keep
	// their bag order, as a stable sort by key would.
	bag := Bag(Float(3), Str("x"), Int(0), Int(3), Float(negZero()), Tuple(Int(1)), Int(0))
	sorted, err := SortBag(bag)
	if err != nil {
		t.Fatal(err)
	}
	want := refSortBag(bag.Items)
	if got, w := refText(sorted), refText(BagOf(want)); got != w {
		t.Fatalf("SortBag = %s, want %s", got, w)
	}
	if got := refText(sorted); got != "[0, -0.0, 0, 3.0, 3, 'x', {1}]" {
		t.Fatalf("SortBag = %s", got)
	}
	js, err := AppendJSON(nil, bag)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"bag":[0,-0,0,3,3,"x",{"tuple":[1]}]}`; string(js) != want {
		t.Fatalf("AppendJSON = %s, want %s", js, want)
	}

	// Long runs of ties, past the sizes a sort handles by insertion.
	var many []Value
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			many = append(many, Int(int64(i%5)))
		} else {
			many = append(many, Float(float64(i%5)))
		}
	}
	sorted, err = SortBag(BagOf(many))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := refText(sorted), refText(BagOf(refSortBag(many))); got != want {
		t.Fatalf("SortBag of 200 tied values\n got %s\nwant %s", got, want)
	}
}

func TestAppendJSONRejectsNonFiniteFloats(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		v := Bag(Int(1), Tuple(Str("a"), Float(f)))
		_, err := AppendJSON(nil, v)
		if err == nil {
			t.Fatalf("%s encoded", v)
		}
		_, refErr := refJSON(v)
		if refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: error %v, reference %v", v, err, refErr)
		}
	}
}
