// Package value defines the scalar value model used throughout the engine.
//
// The paper's experiments use integer-valued synthetic sources (Table 3), but
// federated Web sources carry strings as well, so the value model supports
// both. A dedicated EOT kind encodes the special "End-Of-Transmission" marker
// that access modules place in the non-bound fields of EOT tuples
// (Section 2.1.3 of the paper).
package value

import (
	"fmt"
	"strconv"
)

// Kind enumerates the dynamic type of a V.
type Kind uint8

const (
	// Null is the zero value: an absent field.
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Str is a string.
	Str
	// EOTMark is the special End-Of-Transmission marker stored in the
	// non-bound fields of an EOT tuple.
	EOTMark
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Str:
		return "str"
	case EOTMark:
		return "eot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// V is a single scalar value. The zero V is Null.
type V struct {
	K Kind
	I int64
	S string
}

// NewInt returns an integer value.
func NewInt(i int64) V { return V{K: Int, I: i} }

// NewStr returns a string value.
func NewStr(s string) V { return V{K: Str, S: s} }

// NewNull returns the null value.
func NewNull() V { return V{} }

// NewEOT returns the End-Of-Transmission marker value.
func NewEOT() V { return V{K: EOTMark} }

// IsNull reports whether v is the null value.
func (v V) IsNull() bool { return v.K == Null }

// IsEOT reports whether v is the EOT marker.
func (v V) IsEOT() bool { return v.K == EOTMark }

// Equal reports whether two values are identical in kind and content.
func (v V) Equal(o V) bool {
	if v.K != o.K {
		return false
	}
	switch v.K {
	case Int:
		return v.I == o.I
	case Str:
		return v.S == o.S
	default: // Null == Null, EOT == EOT
		return true
	}
}

// Compare orders two values of the same kind: -1 if v < o, 0 if equal,
// +1 if v > o. Values of different kinds order by kind; Null sorts lowest.
func (v V) Compare(o V) int {
	if v.K != o.K {
		if v.K < o.K {
			return -1
		}
		return 1
	}
	switch v.K {
	case Int:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case Str:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	default:
		return 0
	}
}

// FNV-1a parameters. The hash layer is hand-inlined rather than built on
// hash/fnv so that no hasher object (or byte buffer) is allocated per
// operation: every dictionary build/probe hashes at least one value, and the
// paper's premise is that those operations are cheap enough to route every
// tuple through.
const (
	// HashSeed is the FNV-1a offset basis: the initial state for HashInto
	// chains (row hashers, lookup-key hashers).
	HashSeed  uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// mixUint64 folds the 8 little-endian bytes of u into FNV-1a state h.
func mixUint64(h, u uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (u >> i & 0xff)) * hashPrime
	}
	return h
}

// HashInto folds the value into FNV-1a state h, byte-for-byte compatible
// with hashing the kind byte followed by the payload (8 little-endian bytes
// for Int, the raw bytes for Str). Hashes are not injective: every consumer
// that keys storage by them verifies candidates with Equal.
func (v V) HashInto(h uint64) uint64 {
	h = (h ^ uint64(v.K)) * hashPrime
	switch v.K {
	case Int:
		h = mixUint64(h, uint64(v.I))
	case Str:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * hashPrime
		}
	}
	return h
}

// Hash64 returns a stable hash of the value, suitable for hash-index
// buckets. It allocates nothing.
func (v V) Hash64() uint64 { return v.HashInto(HashSeed) }

// String renders the value for debugging and experiment output.
func (v V) String() string {
	switch v.K {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Str:
		return v.S
	case EOTMark:
		return "EOT"
	default:
		return "?"
	}
}

// Key returns a compact string encoding usable as a map key. Distinct values
// always map to distinct keys.
func (v V) Key() string {
	switch v.K {
	case Null:
		return "n"
	case Int:
		return "i" + strconv.FormatInt(v.I, 10)
	case Str:
		return "s" + v.S
	case EOTMark:
		return "e"
	default:
		return "?"
	}
}
