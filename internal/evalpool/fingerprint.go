package evalpool

import (
	"math"
	"reflect"
)

// fingerprint hashes the problem's content: a canonical walk over every
// leaf of the platform and workload that follows the spec pointers and
// hashes the values they point to, never an address. Floats hash as
// their IEEE-754 bits, integers and bools as 64-bit words, and strings
// and slices are length-prefixed so adjacent fields cannot run into
// each other. Two problems with equal content — e.g. two separate
// hw.PlatformByName lookups of one platform — share a key space; a spec
// mutated in place gets a new one. The walk allocates nothing.
func (pr *Problem) fingerprint() uint64 {
	h := contentHash(fnvOffset)
	h.value(reflect.ValueOf(pr).Elem())
	return uint64(h)
}

// fnvOffset is the FNV-1a 64-bit offset basis, the hash's seed.
const fnvOffset = 14695981039346656037

// contentHash accumulates 64-bit words: FNV-1a's xor-multiply step on
// a whole word, followed by an xor-shift so high input bits also reach
// the low output bits. Both steps are bijective, so any single changed
// word changes the running hash.
type contentHash uint64

func (h *contentHash) word(w uint64) {
	x := (uint64(*h) ^ w) * fnvPrime
	*h = contentHash(x ^ x>>32)
}

func (h *contentHash) str(s string) {
	h.word(uint64(len(s)))
	var w uint64
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if i%8 == 7 {
			h.word(w)
			w = 0
		}
	}
	if len(s)%8 != 0 {
		h.word(w)
	}
}

// value hashes v by kind. Only the kinds the platform and workload
// types are built from are supported; anything else (maps, interfaces,
// funcs) has no canonical content encoding here and panics, which the
// package tests turn into a failure the moment such a field appears.
func (h *contentHash) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.value(v.Field(i))
		}
	case reflect.Pointer:
		// A nil spec and a present one must differ; the marker word
		// precedes the pointee's content.
		if v.IsNil() {
			h.word(0)
			return
		}
		h.word(1)
		h.value(v.Elem())
	case reflect.Slice:
		h.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.String:
		h.str(v.String())
	case reflect.Float32, reflect.Float64:
		h.word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.word(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			h.word(1)
		} else {
			h.word(0)
		}
	default:
		panic("evalpool: no content encoding for " + v.Type().String())
	}
}
