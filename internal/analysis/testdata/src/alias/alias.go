// Package alias exercises publishcheck's alias-aware slice writes: a
// write through a *derived* slice — a reslice, a second variable, a
// parameter bound to Bytes-backed memory at a call site — dirties the
// same object as a write through the original Heap.Bytes view.
package alias

import "fix/nvm"

var src = make([]byte, 16)

// derivedDirty writes through a twice-derived alias and publishes.
func derivedDirty(h *nvm.Heap, p nvm.PPtr) {
	b := h.Bytes(p, 16)
	c := b[2:10]
	d := c
	copy(d, src)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its copy into Heap\.Bytes at .* is not persisted`
}

// derivedClean persists through the original view what was written
// through the alias — alias-awareness in both directions.
func derivedClean(h *nvm.Heap, p nvm.PPtr) {
	b := h.Bytes(p, 16)
	c := b[2:10]
	d := c
	copy(d, src)
	h.PersistBytes(b)
	h.SetRoot(0, p)
}

// fillBuf writes through a slice parameter: whether that dirties NVM
// depends on what callers pass, which only the points-to graph knows.
// Its obligation shifts to the in-package callers.
func fillBuf(buf []byte) {
	copy(buf, src)
}

// paramDirty passes Bytes-backed memory into the helper and publishes
// without a persist.
func paramDirty(h *nvm.Heap, p nvm.PPtr) {
	b := h.Bytes(p, 16)
	fillBuf(b)
	h.SetRoot(0, p) // want `Heap\.SetRoot publishes .* while its call of fillBuf at .* is not persisted`
}

// paramClean persists after the helper's write.
func paramClean(h *nvm.Heap, p nvm.PPtr) {
	b := h.Bytes(p, 16)
	fillBuf(b)
	h.PersistBytes(b)
	h.SetRoot(0, p)
}

// fillVolatile is shaped like fillBuf but no caller ever passes it NVM
// memory; the summary is context-insensitive, so sharing fillBuf would
// smear paramDirty's taint over volatile callers too.
func fillVolatile(buf []byte) {
	copy(buf, src)
}

// volatileStays proves the taint does not leak: writing a volatile
// buffer through the same shape of helper stays silent.
func volatileStays(h *nvm.Heap, p nvm.PPtr) {
	buf := make([]byte, 16)
	fillVolatile(buf)
	h.SetRoot(0, p)
}
