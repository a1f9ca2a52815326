// Package wirecode exercises the wirecodecheck analyzer.
package wirecode

import "fix/wire"

// dispatchIncomplete misses TypeBatchOK and TypeError; the default
// clause does not excuse them — new opcodes must not fall through
// silently.
func dispatchIncomplete(t wire.Type) int {
	switch t { // want `switch over wire\.Type is not exhaustive: missing TypeBatchOK, TypeError`
	case wire.TypePing:
		return 1
	case wire.TypeBegin, wire.TypeBatch:
		return 2
	default:
		return 0
	}
}

// dispatchComplete covers every opcode (TypeInvalid is the exempt zero
// sentinel).
func dispatchComplete(t wire.Type) int {
	switch t {
	case wire.TypePing:
		return 1
	case wire.TypeBegin, wire.TypeBatch, wire.TypeBatchOK, wire.TypeError:
		return 2
	}
	return 0
}

// codeIncomplete misses CodeBadRequest. Version shares the underlying
// type but is not an error code and must not be demanded.
func codeIncomplete(c uint16) int {
	switch c { // want `switch over wire error code is not exhaustive: missing CodeBadRequest; add`
	case wire.CodeInternal:
		return 1
	case wire.CodeConflict:
		return 2
	}
	return 0
}

// codeComplete names every error code.
func codeComplete(c uint16) int {
	switch c {
	case wire.CodeInternal, wire.CodeConflict, wire.CodeBadRequest:
		return 1
	}
	return 0
}

// nameTable is the Type.String idiom with a hole.
func nameTable(t wire.Type) string {
	names := map[wire.Type]string{ // want `composite literal keyed by wire\.Type is missing TypeBatch, TypeBatchOK, TypeError`
		wire.TypePing:  "ping",
		wire.TypeBegin: "begin",
	}
	return names[t]
}

// nameTableFull covers the enum.
func nameTableFull(t wire.Type) string {
	names := map[wire.Type]string{
		wire.TypeInvalid: "invalid",
		wire.TypePing:    "ping",
		wire.TypeBegin:   "begin",
		wire.TypeError:   "error",
		wire.TypeBatch:   "batch",
		wire.TypeBatchOK: "batch-ok",
	}
	return names[t]
}

// deliberateSubset documents a handshake path that only ever sees Ping.
func deliberateSubset(t wire.Type) bool {
	//nvmcheck:ignore wirecodecheck fixture: handshake loop only answers pings
	switch t {
	case wire.TypePing:
		return true
	}
	return false
}
