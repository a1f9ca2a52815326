// Package ptrflow exercises the points-to engine directly: no
// analyzer, no want comments — the ptr unit tests assert on the solved
// graph of this package.
package ptrflow

import (
	"sync/atomic"

	"fix/nvm"
)

// alias derives a second slice view of the same block: c and b must
// alias the same abstract object, and both must be NVM.
func alias(h *nvm.Heap) []byte {
	p, _ := h.Alloc(64)
	b := h.Bytes(p, 64)
	c := b
	return c
}

// volatileBuf never touches the heap: the make result must stay
// volatile.
func volatileBuf() []byte {
	buf := make([]byte, 64)
	return buf
}

// node is a two-field struct holding a block pointer, for
// field-sensitivity checks.
type node struct {
	next nvm.PPtr
	data nvm.PPtr
}

// link stores a freshly allocated block into n.next only: the next
// field must point to the new block, the data field must not.
func link(h *nvm.Heap, n *node) {
	p, _ := h.Alloc(32)
	n.next = p
}

// flusher is the interface-dispatch fixture: resolve() must bind the
// call to both concrete flush methods that flow into f.
type flusher interface{ flush(h *nvm.Heap, p nvm.PPtr) }

type syncFlusher struct{}

func (syncFlusher) flush(h *nvm.Heap, p nvm.PPtr) { h.Persist(p, 8) }

type asyncFlusher struct{}

func (asyncFlusher) flush(h *nvm.Heap, p nvm.PPtr) { h.Flush(p, 8) }

func resolve(h *nvm.Heap, p nvm.PPtr, fast bool) {
	var f flusher = syncFlusher{}
	if fast {
		f = asyncFlusher{}
	}
	f.flush(h, p)
}

// indirect calls a helper through a stored function value: the call
// must resolve to persistHelper.
func persistHelper(h *nvm.Heap, p nvm.PPtr) { h.Persist(p, 8) }

func indirect(h *nvm.Heap, p nvm.PPtr) {
	fv := persistHelper
	fv(h, p)
}

// boundCall goes through a method value with a bound receiver.
func boundCall(h *nvm.Heap, p nvm.PPtr) {
	persist := h.Persist
	persist(p, 8)
}

// convRoundtrip pushes a PPtr through the uint64 conversions the heap
// word interface forces: provenance must survive.
func convRoundtrip(h *nvm.Heap, slot, q nvm.PPtr) nvm.PPtr {
	h.SetU64(slot, uint64(q))
	return nvm.PPtr(h.U64(slot))
}

// atomicSegs keeps PPtrs in atomic words, as a segment directory does.
type atomicSegs struct {
	segs [4]atomic.Uint64
}

// atomicRoundtrip stores an allocated block's PPtr into an atomic word
// and loads it back: provenance must survive.
func atomicRoundtrip(h *nvm.Heap, d *atomicSegs) nvm.PPtr {
	p, _ := h.Alloc(64)
	d.segs[1].Store(uint64(p))
	return nvm.PPtr(d.segs[1].Load())
}

// escape ships one buffer to a goroutine and keeps the other local.
func escape() ([]byte, int) {
	shared := make([]byte, 8)
	local := make([]byte, 8)
	ch := make(chan []byte, 1)
	go func() { ch <- shared }()
	n := 0
	for _, b := range local {
		n += int(b)
	}
	return nil, n
}

// publishChain builds root -> mid (via SetU64) and publishes root:
// both blocks must end up Published.
func publishChain(h *nvm.Heap) {
	root, _ := h.Alloc(16)
	mid, _ := h.Alloc(16)
	orphan, _ := h.Alloc(16)
	_ = orphan
	h.SetU64(root, uint64(mid))
	h.Persist(mid, 16)
	h.Persist(root, 16)
	h.SetRoot(0, root)
}

// goLaunch fires a stored function value on a goroutine: the launch is
// a dynamic call edge and must resolve to persistHelper even though the
// callee never runs on the spawning frame.
func goLaunch(h *nvm.Heap, p nvm.PPtr) {
	fv := persistHelper
	go fv(h, p)
}

// goBound launches a method value whose receiver was bound at capture
// time: the goroutine's call edge must resolve to Heap.Persist through
// the bound receiver.
func goBound(h *nvm.Heap, p nvm.PPtr) {
	persist := h.Persist
	go persist(p, 8)
}
