package core

// The cacheable-result codec. MakeCacheable compiles its result type T once,
// at registration, into a plan — a tree with one node per type, where a
// struct's field and a slice's element are plans themselves — and every
// call replays the plan: no type description travels with a value (the
// seed's gob stream re-emitted one per install and re-parsed it per hit,
// ~24% of the RUBiS mix's cycles) and no type is re-reflected on the hot
// path. What a plan can express:
//
//   - string, int64, int, float64, bool, and sql.Value (the dynamically
//     typed SQL scalar, written by sql.AppendValue)
//   - structs whose fields are all exported and expressible, slices and
//     non-nil pointers of anything expressible — so []sql.Value,
//     [][]sql.Value, nested structs and slices of slices all follow
//   - db.Result, as its Cols and Rows
//
// Anything else — a map, a channel, an unexported field, a float32 — is
// refused by planOf, and MakeCacheable panics at registration: a type that
// cannot be cached is a programming error found at start-up, not a cost
// paid silently on every call.
//
// A payload is [fmtPlan][root kind][u32 LE fingerprint][body] (DESIGN.md
// "Encodings"). The fingerprint hashes the whole plan, field names
// included: a cache node outlives an application deploy, and a hit written
// under another layout of T — or by a binary from before this format —
// fails to decode, is counted, and is recomputed rather than misread.
// Bytes from a cache node are another process's output: they are read
// through a wire.Decoder and every count is bounded by the bytes that
// remain before anything is allocated for it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"

	"txcache/internal/db"
	"txcache/internal/sql"
	"txcache/internal/wire"
)

// fmtPlan is a payload's first byte. 'F' and 'G' were the previous
// format's plan and gob payloads; a node may still hold some.
const fmtPlan byte = 'P'

// Plan kinds.
const (
	pString byte = iota + 1
	pInt64
	pInt
	pFloat64
	pBool
	pValue  // sql.Value
	pStruct // fields in declaration order
	pSlice  // uvarint count, elements
	pPtr    // the pointee; nil is not encodable
)

var errCodecMismatch = errors.New("core: cached bytes do not match the type's codec fingerprint")

// plan is the compiled codec for one Go type.
type plan struct {
	kind   byte
	typ    reflect.Type
	elem   *plan   // pSlice, pPtr
	fields []field // pStruct
	fp     uint32  // of the whole tree; set on the root only
}

// field is one encoded field of a struct.
type field struct {
	idx  int
	name string
	plan *plan
}

var (
	valueType  = reflect.TypeFor[sql.Value]()
	resultType = reflect.TypeFor[db.Result]()
)

// planOf compiles the plan for t, or reports why t cannot be cached.
func planOf(t reflect.Type) (*plan, error) {
	p, err := compilePlan(t, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %v cannot be cached: %w", t, err)
	}
	p.fp = 2166136261 // FNV-1a
	p.mix(&p.fp)
	return p, nil
}

// compilePlan builds t's plan; outer holds the types being compiled around
// it, so a type that contains itself is refused instead of recursed into.
func compilePlan(t reflect.Type, outer []reflect.Type) (*plan, error) {
	if t == valueType {
		return &plan{kind: pValue, typ: t}, nil
	}
	if slices.Contains(outer, t) {
		return nil, fmt.Errorf("%v contains itself", t)
	}
	outer = append(outer, t)
	p := &plan{typ: t}
	var err error
	switch t.Kind() {
	case reflect.String:
		p.kind = pString
	case reflect.Int64:
		p.kind = pInt64
	case reflect.Int:
		p.kind = pInt
	case reflect.Float64:
		p.kind = pFloat64
	case reflect.Bool:
		p.kind = pBool
	case reflect.Slice:
		p.kind = pSlice
		p.elem, err = compilePlan(t.Elem(), outer)
	case reflect.Pointer:
		p.kind = pPtr
		p.elem, err = compilePlan(t.Elem(), outer)
	case reflect.Struct:
		p.kind = pStruct
		for i := 0; i < t.NumField() && err == nil; i++ {
			f := t.Field(i)
			if t == resultType && f.Name != "Cols" && f.Name != "Rows" {
				// Validity and Tags describe the generating transaction; the
				// cache entry carries its own.
				continue
			}
			if !f.IsExported() {
				return nil, fmt.Errorf("%v has unexported field %s", t, f.Name)
			}
			var fp *plan
			fp, err = compilePlan(f.Type, outer)
			p.fields = append(p.fields, field{idx: i, name: f.Name, plan: fp})
		}
		if len(p.fields) == 0 && err == nil {
			// Every plan encodes to at least one byte, which is what bounds
			// a slice's count by the bytes that remain.
			err = fmt.Errorf("%v has no fields", t)
		}
	default:
		err = fmt.Errorf("%v is not a string, int64, int, float64, bool, sql.Value, or a struct, slice or pointer of those", t)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// mix folds the plan's shape — and, for structs, the field names, so any
// relayout of T changes it — into the FNV-1a hash h.
func (p *plan) mix(h *uint32) {
	add := func(b byte) { *h = (*h ^ uint32(b)) * 16777619 }
	add(p.kind)
	switch p.kind {
	case pStruct:
		add(byte(len(p.fields)))
		for _, f := range p.fields {
			for i := 0; i < len(f.name); i++ {
				add(f.name[i])
			}
			add(0)
			f.plan.mix(h)
		}
	case pSlice, pPtr:
		p.elem.mix(h)
	}
}

// Pooled encode scratch.
var encPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// encode serializes rv (a T) into a fresh exact-size byte slice the cache
// may retain — in-process cache servers keep the slice, so the pooled
// scratch is copied out of, never handed over.
func (p *plan) encode(rv reflect.Value) ([]byte, error) {
	bp := encPool.Get().(*[]byte)
	buf := append((*bp)[:0], fmtPlan, p.kind)
	buf = binary.LittleEndian.AppendUint32(buf, p.fp)
	buf, err := p.append(buf, rv)
	var out []byte
	if err == nil {
		out = make([]byte, len(buf))
		copy(out, buf)
	}
	*bp = buf[:0]
	encPool.Put(bp)
	return out, err
}

// decode parses data (a payload from a cache node, possibly written by
// another build of the application) into rv, a settable zero T.
func (p *plan) decode(data []byte, rv reflect.Value) error {
	d := wire.NewDecoder(data)
	if tag := d.U8(); tag != fmtPlan {
		return fmt.Errorf("core: unknown cached payload format %#x", tag)
	}
	if kind, fp := d.U8(), d.U32(); kind != p.kind || fp != p.fp {
		return errCodecMismatch
	}
	p.read(d, rv)
	if d.Err() != nil {
		return d.Err()
	}
	if d.Len() != 0 {
		return errCodecMismatch
	}
	return nil
}

// append encodes rv per the plan; on an error buf comes back as it stood.
func (p *plan) append(buf []byte, rv reflect.Value) ([]byte, error) {
	var err error
	switch p.kind {
	case pString:
		s := rv.String()
		return append(binary.AppendUvarint(buf, uint64(len(s))), s...), nil
	case pInt64, pInt:
		return binary.LittleEndian.AppendUint64(buf, uint64(rv.Int())), nil
	case pFloat64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(rv.Float())), nil
	case pBool:
		if rv.Bool() {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case pValue:
		// The engine's rows hold SQL scalars only, but a value the
		// application built may hold anything.
		return sql.AppendValue(buf, rv.Interface())
	case pPtr:
		if rv.IsNil() {
			return buf, fmt.Errorf("core: cannot cache a nil %v", p.typ)
		}
		return p.elem.append(buf, rv.Elem())
	case pSlice:
		n := rv.Len()
		buf = binary.AppendUvarint(buf, uint64(n))
		for i := 0; i < n && err == nil; i++ {
			buf, err = p.elem.append(buf, rv.Index(i))
		}
	default: // pStruct
		for i := 0; i < len(p.fields) && err == nil; i++ {
			buf, err = p.fields[i].plan.append(buf, rv.Field(p.fields[i].idx))
		}
	}
	return buf, err
}

// read decodes into rv per the plan. A slip poisons d, which the caller
// checks once; every read after it sees zeros and an empty payload.
func (p *plan) read(d *wire.Decoder, rv reflect.Value) {
	switch p.kind {
	case pString:
		rv.SetString(string(d.Take(int(d.Uvarint()))))
	case pInt64, pInt:
		rv.SetInt(d.I64())
	case pFloat64:
		rv.SetFloat(math.Float64frombits(d.U64()))
	case pBool:
		rv.SetBool(d.Bool())
	case pValue:
		if v := sql.DecodeValue(d); v != nil {
			rv.Set(reflect.ValueOf(v))
		}
	case pPtr:
		rv.Set(reflect.New(p.typ.Elem()))
		p.elem.read(d, rv.Elem())
	case pSlice:
		n := d.Uvarint()
		if n > uint64(d.Len()) { // an element is at least one byte
			d.Fail(errCodecMismatch)
			return
		}
		rv.Set(reflect.MakeSlice(p.typ, int(n), int(n)))
		for i := 0; i < int(n) && d.Err() == nil; i++ {
			p.elem.read(d, rv.Index(i))
		}
	default: // pStruct
		for _, f := range p.fields {
			f.plan.read(d, rv.Field(f.idx))
		}
	}
}
