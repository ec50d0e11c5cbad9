package serve

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// encodeResult marshals a solver result exactly the way the minegame
// CLI's -json emitter does (encoding/json, two-space indent, trailing
// newline), so a served result is byte-identical to the single-shot CLI
// solve of the same market. Instead of marshaling compact bytes and
// re-indenting them, it writes the indented bytes in one pass from a
// cached per-type plan into a pooled scratch buffer, then returns an
// exact-length copy: the result cache keeps that copy, so no slack
// capacity stays resident.
func encodeResult(v any) ([]byte, error) {
	enc, err := planFor(reflect.TypeOf(v))
	if err != nil {
		return nil, err
	}
	bp := scratch.Get().(*[]byte)
	b, err := enc((*bp)[:0], reflect.ValueOf(v), 0)
	var out []byte
	if err == nil {
		out = make([]byte, len(b)+1)
		copy(out, b)
		out[len(b)] = '\n'
	}
	*bp = b[:0]
	scratch.Put(bp)
	return out, err
}

// scratch holds reusable encode buffers; each grows to the largest
// result its goroutines have written.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// encodeFn appends v as indented JSON, for a value nested depth levels
// deep, and returns the extended buffer.
type encodeFn func(b []byte, v reflect.Value, depth int) ([]byte, error)

// plans caches one encodeFn per top-level result type.
var plans sync.Map // reflect.Type → encodeFn

// planFor returns the cached plan for t, building it on first use.
func planFor(t reflect.Type) (encodeFn, error) {
	if fn, ok := plans.Load(t); ok {
		return fn.(encodeFn), nil
	}
	fn, err := buildPlan(t, map[reflect.Type]bool{})
	if err != nil {
		return nil, err
	}
	plans.Store(t, fn)
	return fn, nil
}

var (
	jsonMarshalerType = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshalerType = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// buildPlan covers exactly the kinds the served result types use —
// structs, slices, float64, int, bool and string — and rejects every
// other kind, any type with its own marshaler, and recursive types, so
// a result shape the plan would encode differently from encoding/json
// fails loudly instead. path holds the types being built above t.
func buildPlan(t reflect.Type, path map[reflect.Type]bool) (encodeFn, error) {
	if t.Implements(jsonMarshalerType) || t.Implements(textMarshalerType) ||
		reflect.PointerTo(t).Implements(jsonMarshalerType) || reflect.PointerTo(t).Implements(textMarshalerType) {
		return nil, fmt.Errorf("serve: result type %v has its own marshaler", t)
	}
	if path[t] {
		return nil, fmt.Errorf("serve: result type %v is recursive", t)
	}
	path[t] = true
	defer delete(path, t)
	switch t.Kind() {
	case reflect.Float64:
		return encodeFloat, nil
	case reflect.Int:
		return func(b []byte, v reflect.Value, _ int) ([]byte, error) { return strconv.AppendInt(b, v.Int(), 10), nil }, nil
	case reflect.Bool:
		return func(b []byte, v reflect.Value, _ int) ([]byte, error) { return strconv.AppendBool(b, v.Bool()), nil }, nil
	case reflect.String:
		return func(b []byte, v reflect.Value, _ int) ([]byte, error) { return appendString(b, v.String()), nil }, nil
	case reflect.Slice:
		return slicePlan(t, path)
	case reflect.Struct:
		return structPlan(t, path)
	}
	return nil, fmt.Errorf("serve: result type %v has unsupported kind %v", t, t.Kind())
}

// slicePlan writes nil as null, empty as [] and otherwise one element
// per line.
func slicePlan(t reflect.Type, path map[reflect.Type]bool) (encodeFn, error) {
	elem, err := buildPlan(t.Elem(), path)
	if err != nil {
		return nil, err
	}
	return func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		if v.Len() == 0 {
			return append(b, "[]"...), nil
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = elem(newline(b, depth+1), v.Index(i), depth+1); err != nil {
				return b, err
			}
		}
		return append(newline(b, depth), ']'), nil
	}, nil
}

// fieldPlan is one encoded struct field.
type fieldPlan struct {
	index     int
	key       []byte // the escaped, quoted name followed by ": "
	omitEmpty bool
	enc       encodeFn
}

// structPlan follows encoding/json's field rules for non-embedded
// fields: exported fields in declaration order, named by the tag or
// the field name, skipped for tag "-", omitted when empty under
// omitempty. Embedded fields, other tag options, names encoding/json
// would not accept and duplicate names are errors.
func structPlan(t reflect.Type, path map[reflect.Type]bool) (encodeFn, error) {
	var fields []fieldPlan
	seen := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if (!sf.Anonymous && !sf.IsExported()) || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		switch {
		case sf.Anonymous:
			return nil, fmt.Errorf("serve: %v.%s: embedded fields are not supported", t, sf.Name)
		case opts != "" && opts != "omitempty":
			return nil, fmt.Errorf("serve: %v.%s: tag option %q is not supported", t, sf.Name, opts)
		case name == "":
			name = sf.Name
		case !validTagName(name):
			return nil, fmt.Errorf("serve: %v.%s: tag name %q is not supported", t, sf.Name, name)
		}
		if seen[name] {
			return nil, fmt.Errorf("serve: %v: duplicate field name %q", t, name)
		}
		seen[name] = true
		enc, err := buildPlan(sf.Type, path)
		if err != nil {
			return nil, err
		}
		key := append(appendString(nil, name), ':', ' ')
		fields = append(fields, fieldPlan{index: i, key: key, omitEmpty: opts == "omitempty", enc: enc})
	}
	return func(b []byte, v reflect.Value, depth int) ([]byte, error) {
		b = append(b, '{')
		wrote := false
		for _, f := range fields {
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			if wrote {
				b = append(b, ',')
			}
			wrote = true
			var err error
			if b, err = f.enc(append(newline(b, depth+1), f.key...), fv, depth+1); err != nil {
				return b, err
			}
		}
		if wrote {
			b = newline(b, depth)
		}
		return append(b, '}'), nil
	}, nil
}

// validTagName is encoding/json's rule for a usable tag name.
func validTagName(s string) bool {
	for _, c := range s {
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && !strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c) {
			return false
		}
	}
	return true
}

// isEmpty is encoding/json's omitempty test for the planned kinds.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int:
		return v.Int() == 0
	case reflect.Float64:
		return v.Float() == 0
	}
	return false
}

// newline starts a new line indented two spaces per depth level.
func newline(b []byte, depth int) []byte {
	b = append(b, '\n')
	for i := 0; i < depth; i++ {
		b = append(b, ' ', ' ')
	}
	return b
}

// encodeFloat is encoding/json's float64 format: the shortest
// round-tripping decimal, in exponent form below 1e-6 or from 1e21 in
// magnitude with a one-digit negative exponent left unpadded. NaN and
// ±Inf fail with encoding/json's error.
func encodeFloat(b []byte, v reflect.Value, _ int) ([]byte, error) {
	f := v.Float()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: v, Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendString quotes s as encoding/json does with HTML escaping on:
// control bytes, quote, backslash, <, > and & escaped, invalid UTF-8
// replaced by \ufffd, U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
				b = append(b, '\\', `"\bfnrt`[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
