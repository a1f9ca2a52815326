package pstruct

import (
	"hyrisenv/internal/nvm"
)

// Blobs are length-prefixed byte strings on NVM, used for dictionary
// values. A blob is written and persisted in full before its pointer is
// published, so a reachable blob is always complete. A blob is either a
// heap block of its own (WriteBlob: schemas, main dictionaries) or lies
// inside a record in an arena (HashDict.KeyRef: delta dictionaries);
// readers cannot tell and need not.
//
// Layout: length uint32 | bytes.

// WriteBlob stores b as a persistent blob in a block of its own and
// returns its pointer.
func WriteBlob(h *nvm.Heap, b []byte) (nvm.PPtr, error) {
	p, err := h.Alloc(4 + uint64(len(b)))
	if err != nil {
		return 0, err
	}
	h.PutU32(p, uint32(len(b)))
	copy(h.Bytes(p.Add(4), uint64(len(b))), b)
	h.Persist(p, 4+uint64(len(b)))
	return p, nil
}

// ReadBlob returns the bytes of the blob at p, aliasing NVM (do not
// mutate). A nil pointer yields a nil slice.
func ReadBlob(h *nvm.Heap, p nvm.PPtr) []byte {
	if p.IsNil() {
		return nil
	}
	n := uint64(h.GetU32(p))
	if h.ReadLatencyEnabled() {
		h.ChargeRead(4 + n)
	}
	return h.Bytes(p.Add(4), n)
}

// BlobLen returns the length of the blob at p without touching its bytes.
func BlobLen(h *nvm.Heap, p nvm.PPtr) uint64 {
	if p.IsNil() {
		return 0
	}
	return uint64(h.GetU32(p))
}
