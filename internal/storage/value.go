// Package storage implements the Hyrise column-store layout: a
// read-optimized, dictionary-compressed *main* partition and a
// write-optimized, append-only *delta* partition per table. One set of
// structures runs on two media: the NVM heap of Hyrise-NV, and a heap
// that does not persist (nvm.CreateVolatile) under the log-based
// baseline and the volatile engine, whose checkpoint loader rebuilds
// them onto it.
//
// Every write goes through the two halves of package
// pstruct — stage what is new where nothing reaches it, fence, publish
// the words that make it reachable, fence — and a row append
// (Table.AppendRow) runs them over all of the row's structures at once:
// the delta columns' attribute vectors, dictionaries and dictionary
// indexes, the postings of indexed columns, the MVCC vectors and the
// transaction's undo record are staged together, fenced once, published
// together and fenced once more. The structures are kept consistent
// with each other not by ordering their persists but at restart: a row
// is invisible until commit stamps it, so whatever a crash leaves of a
// half-published row is completed (a dictionary entry already handed
// out) or cut back to the shortest structure, in O(columns). Keys, index
// nodes and posting nodes live in per-structure append arenas
// (pstruct.Arena), which a merge drops with the delta they belong to.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// ColType enumerates the supported column types.
type ColType uint8

// Column types.
const (
	TypeInt64 ColType = iota + 1
	TypeFloat64
	TypeString
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Value is a dynamically typed cell value.
type Value struct {
	T ColType
	I int64
	F float64
	S string
}

// Int returns an int64 Value.
func Int(v int64) Value { return Value{T: TypeInt64, I: v} }

// Float returns a float64 Value.
func Float(v float64) Value { return Value{T: TypeFloat64, F: v} }

// Str returns a string Value.
func Str(v string) Value { return Value{T: TypeString, S: v} }

// String formats the value for display.
func (v Value) String() string {
	switch v.T {
	case TypeInt64:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	default:
		return "<nil>"
	}
}

// Equal reports whether two values are identical (same type and content).
func (v Value) Equal(o Value) bool {
	if v.T != o.T {
		return false
	}
	switch v.T {
	case TypeInt64:
		return v.I == o.I
	case TypeFloat64:
		return v.F == o.F || (math.IsNaN(v.F) && math.IsNaN(o.F))
	case TypeString:
		return v.S == o.S
	}
	return true
}

// EncodeKey appends an order-preserving binary encoding of v to dst:
// comparing encodings with bytes.Compare orders values like their natural
// ordering. Dictionaries and indexes store these encodings as keys.
func (v Value) EncodeKey(dst []byte) []byte {
	switch v.T {
	case TypeInt64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I)^(1<<63))
		return append(dst, b[:]...)
	case TypeFloat64:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything
		} else {
			bits |= 1 << 63 // positive: flip the sign bit
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(dst, b[:]...)
	case TypeString:
		return append(dst, v.S...)
	default:
		panic(fmt.Sprintf("storage: EncodeKey on invalid value type %d", v.T))
	}
}

// AppendBinary appends a self-describing binary encoding of v to dst
// (type u8 | payload). Log records and checkpoints use this format; it is
// compact but not order-preserving — use EncodeKey for dictionary keys.
func (v Value) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(v.T))
	switch v.T {
	case TypeInt64:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case TypeFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case TypeString:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.S)))
		return append(dst, v.S...)
	default:
		panic(fmt.Sprintf("storage: AppendBinary on invalid value type %d", v.T))
	}
}

// DecodeBinary reads one AppendBinary-encoded value from b and returns it
// with the remaining bytes.
func DecodeBinary(b []byte) (Value, []byte, error) {
	if len(b) < 1 {
		return Value{}, nil, fmt.Errorf("storage: truncated value")
	}
	t := ColType(b[0])
	b = b[1:]
	switch t {
	case TypeInt64, TypeFloat64:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("storage: truncated %s", t)
		}
		u := binary.LittleEndian.Uint64(b)
		if t == TypeInt64 {
			return Int(int64(u)), b[8:], nil
		}
		return Float(math.Float64frombits(u)), b[8:], nil
	case TypeString:
		if len(b) < 4 {
			return Value{}, nil, fmt.Errorf("storage: truncated string length")
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return Value{}, nil, fmt.Errorf("storage: truncated string body")
		}
		return Str(string(b[:n])), b[n:], nil
	default:
		return Value{}, nil, fmt.Errorf("storage: invalid value type %d", t)
	}
}

// Zero returns the zero value of type t (replay gap filler).
func Zero(t ColType) Value {
	switch t {
	case TypeInt64:
		return Int(0)
	case TypeFloat64:
		return Float(0)
	case TypeString:
		return Str("")
	default:
		panic(fmt.Sprintf("storage: Zero of invalid type %d", t))
	}
}

// DecodeValue reverses EncodeKey for a value of type t.
func DecodeValue(t ColType, key []byte) Value {
	switch t {
	case TypeInt64:
		u := binary.BigEndian.Uint64(key) ^ (1 << 63)
		return Int(int64(u))
	case TypeFloat64:
		bits := binary.BigEndian.Uint64(key)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits))
	case TypeString:
		return Str(string(key))
	default:
		panic(fmt.Sprintf("storage: DecodeValue with invalid type %d", t))
	}
}
