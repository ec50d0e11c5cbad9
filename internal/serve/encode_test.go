package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/verify"
)

// wideMarket is an exact heterogeneous connected market of n miners
// with budgets spread evenly over [8, 12).
func wideMarket(n int) Market {
	m := testMarket()
	m.N = n
	m.Budget = 0
	m.Budgets = make([]float64, n)
	for i := range m.Budgets {
		m.Budgets[i] = 8 + 4*(float64(i)+0.5)/float64(n)
	}
	return m
}

// wideCertified solves and certifies wideMarket(n) at fixed prices,
// returning the value /v1/certify encodes for it.
func wideCertified(tb testing.TB, n int) certified[core.MinerEquilibrium] {
	tb.Helper()
	cfg, _, _, err := wideMarket(n).coreConfig()
	if err != nil {
		tb.Fatalf("coreConfig: %v", err)
	}
	prices := core.Prices{Edge: 8, Cloud: 4}
	eq, err := core.SolveMinerEquilibrium(cfg, prices, game.NEOptions{})
	if err != nil {
		tb.Fatalf("solve: %v", err)
	}
	cert, err := verify.Certify(cfg, prices, eq, verify.Options{})
	if err != nil {
		tb.Fatalf("certify: %v", err)
	}
	return certified[core.MinerEquilibrium]{Equilibrium: eq, Certificate: cert}
}

var encodeSink []byte

// BenchmarkEncodeResult times the serving encoder on the result the
// solve-wide workload produces: an N = 1000 certified equilibrium.
func BenchmarkEncodeResult(b *testing.B) {
	v := wideCertified(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := encodeResult(v)
		if err != nil {
			b.Fatal(err)
		}
		encodeSink = out
	}
}

// servedShapes holds one zero value of every type the handlers pass to
// encodeResult.
var servedShapes = []any{
	core.MinerEquilibrium{},
	core.ClassedEquilibrium{},
	core.StackelbergResult{},
	core.ClassedStackelbergResult{},
	certified[core.MinerEquilibrium]{},
	certified[core.ClassedEquilibrium]{},
	certifiedFull[core.StackelbergResult]{},
	certifiedFull[core.ClassedStackelbergResult]{},
}

// TestPlanCoversServedShapes pins that every served result type has a
// plan, and that shapes outside the planned kinds and tag options are
// refused rather than encoded differently from encoding/json.
func TestPlanCoversServedShapes(t *testing.T) {
	for _, v := range servedShapes {
		if _, err := planFor(reflect.TypeOf(v)); err != nil {
			t.Errorf("%T: %v", v, err)
		}
	}
	type recursive struct{ Next []recursive }
	type embedded struct{ Market }
	for _, v := range []any{
		map[string]float64{},
		[]*float64{},
		struct{ X float32 }{},
		struct {
			X int `json:",string"`
		}{},
		struct {
			X int `json:"x,omitzero"`
		}{},
		struct {
			X int `json:"a\\b"`
		}{},
		struct {
			X int
			Y int `json:"X"`
		}{},
		embedded{},
		recursive{},
		json.RawMessage{},
	} {
		if _, err := planFor(reflect.TypeOf(v)); err == nil {
			t.Errorf("%T: planned, want an error", v)
		}
	}
}

// checkEncode requires encodeResult(v) to equal the CLI's emitter byte
// for byte, or to fail with the same error text.
func checkEncode(t testing.TB, v any) {
	t.Helper()
	var ref bytes.Buffer
	enc := json.NewEncoder(&ref)
	enc.SetIndent("", "  ")
	wantErr := enc.Encode(v)
	got, err := encodeResult(v)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%T: error %v, encoding/json error %v", v, err, wantErr)
		}
	case !bytes.Equal(got, ref.Bytes()):
		t.Fatalf("%T: bytes differ from encoding/json\ngot:  %q\nwant: %q", v, got, ref.Bytes())
	}
}

// TestEncodeResultEdges pins the float, string, slice and omitempty
// edges the plan encoder reimplements.
func TestEncodeResultEdges(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308,
		math.Nextafter(1e-6, 0), 1e-6, -1e-7, math.Nextafter(1e21, 0), 1e21, -1.5e300, 0.1, 12345.678}
	cert := verify.Certificate{
		Kind:    "<a href=\"x\">&amp;</a>\u2028\u2029\\",
		Mode:    "\x00\x01\b\f\n\r\t\x1f\x7f é\xff\xc3(\xed\xa0\x80",
		Gains:   floats,
		Checks:  []verify.Check{{Name: "zero", Detail: ""}, {Name: "tab\t", Residual: 1e-9, OK: true, Detail: "d"}},
		Epsilon: 3e21,
	}
	checkEncode(t, certified[core.MinerEquilibrium]{Certificate: cert})
	checkEncode(t, core.MinerEquilibrium{Utilities: []float64{}, WinProbs: nil})
	checkEncode(t, verify.Certificate{Gains: []float64{}, Checks: []verify.Check{}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncode(t, core.StackelbergResult{ProfitE: bad})
		checkEncode(t, verify.Certificate{Gains: []float64{1, bad}})
	}
}

// fuzzFloats are the float64 edges encoding/json's format turns on.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	math.Nextafter(1e-6, 0), 1e-6, -1e-6, math.Nextafter(1e21, 0), 1e21, -1e21,
	math.NaN(), math.Inf(1), math.Inf(-1), 1, 0.1, 1e-7, 123456789.125,
}

// fuzzBytes hands out fuzz input; once it runs dry every read is zero.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(b.next())
	}
	return x
}

// fill sets every settable field under v: floats from the edge table or
// raw bits, strings from raw bytes, slices nil, empty or short.
func (b *fuzzBytes) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		if c := b.next(); c < 128 {
			v.SetFloat(fuzzFloats[int(c)%len(fuzzFloats)])
		} else {
			v.SetFloat(math.Float64frombits(b.u64()))
		}
	case reflect.Int:
		v.SetInt(int64(b.u64()))
	case reflect.Bool:
		v.SetBool(b.next()&1 == 1)
	case reflect.String:
		s := make([]byte, b.next()%16)
		for i := range s {
			s[i] = b.next()
		}
		v.SetString(string(s))
	case reflect.Slice:
		if n := int(b.next() % 5); n > 0 {
			s := reflect.MakeSlice(v.Type(), n-1, n-1)
			for i := 0; i < n-1; i++ {
				b.fill(s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				b.fill(f)
			}
		}
	}
}

// FuzzEncodeResult fills a served result type from fuzz bytes and
// requires encodeResult to match encoding/json with indent byte for
// byte, or to fail with the same error text.
func FuzzEncodeResult(f *testing.F) {
	for k := range servedShapes {
		seed := []byte{byte(k)}
		for i := 0; i < 96; i++ {
			seed = append(seed, byte(i*7))
		}
		f.Add(seed)
	}
	f.Add(append([]byte{6}, strings.Repeat("\x0f<>&\xe2\x80\xa8\xff\x01", 20)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzBytes(data)
		typ := reflect.TypeOf(servedShapes[int(src.next())%len(servedShapes)])
		v := reflect.New(typ).Elem()
		src.fill(v)
		checkEncode(t, v.Interface())
	})
}
