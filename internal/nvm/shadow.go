package nvm

import (
	"bytes"
	"math/rand"
)

// Pessimistic crash model.
//
// The optimistic simulation (the default) lets every store survive a
// simulated crash because the mapping is file-backed; it can therefore
// never catch a missing persist barrier dynamically. Shadow mode closes
// that gap: a second, volatile buffer mirrors the *durable image* of the
// heap — the bytes real NVM would be guaranteed to hold after a power
// failure. Stores land in the mapping as usual, but reach the shadow
// only when a Persist barrier covering their cache line completes. When
// the fail-point fires, every dirty line (mapping != shadow) is reverted
// to the shadow — simulating total loss of the CPU caches — or, with a
// tear seed, mixed with it at 8-byte granularity, simulating the
// partial-writeback tearing real hardware permits between fences
// (individual aligned 8-byte stores are failure-atomic on x86; anything
// wider, or any group of stores, is not).

// WithShadow enables the pessimistic crash model on the heap. Strictly a
// crash-testing facility: it doubles memory use and adds a copy at every
// persist barrier. The optimistic model remains the benchmark default.
func WithShadow() Option {
	return func(h *Heap) { h.shadowOn = true }
}

// SetTearSeed selects the crash behavior for dirty cache lines. Seed 0
// (the default) reverts whole lines — the pure-loss model. A non-zero
// seed seeds a deterministic RNG that tears dirty lines at aligned
// 8-byte word granularity: every word independently keeps the new value
// or reverts to the durable one, enumerating the partial-writeback
// states real hardware can expose.
//
// Which lines tear is SetTearFlushed's choice. By default only lines
// that were never flushed do — the cache evicting part of a dirty line
// on its own — and lines flushed since the last fence are lost whole,
// the reading in which a flush no fence has ordered never started.
func (h *Heap) SetTearSeed(seed int64) {
	h.shadowMu.Lock()
	defer h.shadowMu.Unlock()
	if seed == 0 {
		h.tearRnd = nil
	} else {
		h.tearRnd = rand.New(rand.NewSource(seed))
	}
}

// SetTearFlushed makes a tearing crash (see SetTearSeed) also tear the
// lines flushed since the last fence: each 8-byte word of a flush in
// flight independently reached NVM or did not. That is what hardware
// permits between fences, and what a protocol that puts several words
// under one fence must survive — any subset of them may be what
// recovery finds. The crash matrix runs with it on.
func (h *Heap) SetTearFlushed(on bool) {
	h.shadowMu.Lock()
	h.tearFlushed = on
	h.shadowMu.Unlock()
}

// Crashed reports whether a simulated crash has been applied to this
// mapping; after that the heap must be closed and reopened.
func (h *Heap) Crashed() bool {
	h.shadowMu.Lock()
	defer h.shadowMu.Unlock()
	return h.crashed
}

// Crash applies the crash model to this heap immediately, as if power
// were lost at this instant, without routing through a fail-point. A
// real power failure takes the whole machine, not one device: multi-heap
// crash sweeps (the sharded 2PC matrix) use it to cut power to every
// other heap the moment one heap's fail-point fires, so un-persisted
// state is lost everywhere at once. No-op in optimistic mode. Idempotent.
func (h *Heap) Crash() { h.applyCrash() }

// DirtyLines counts cache lines whose mapped contents differ from the
// durable image — writes not yet covered by a persist barrier. Only
// meaningful in shadow mode (0 otherwise).
func (h *Heap) DirtyLines() uint64 {
	if h.shadow == nil {
		return 0
	}
	h.shadowMu.Lock()
	defer h.shadowMu.Unlock()
	var n uint64
	mem := h.mem
	bound := h.scanBound()
	for off := uint64(0); off < bound; off += CacheLineSize {
		if !bytes.Equal(mem[off:off+CacheLineSize], h.shadow[off:off+CacheLineSize]) {
			n++
		}
	}
	return n
}

// flushRange is a line-aligned byte range queued by Flush and published
// to the durable image by the next successful Fence.
type flushRange struct{ first, end uint64 }

// addPending queues the flushed line range [first, end) for publication
// at the next fence. Called from Flush; the range is NOT durable yet.
func (h *Heap) addPending(first, end uint64) {
	h.shadowMu.Lock()
	if !h.crashed {
		h.pending = append(h.pending, flushRange{first, end})
	}
	h.shadowMu.Unlock()
}

// publishPending copies every queued flushed range into the durable
// image. Called from Fence after the crash check passed; a crash at the
// fence therefore drops the queue on the floor (see applyCrash), exactly
// as real hardware loses flushes that no fence ordered.
func (h *Heap) publishPending() {
	h.shadowMu.Lock()
	if !h.crashed {
		for _, r := range h.pending {
			copy(h.shadow[r.first:r.end], h.mem[r.first:r.end])
		}
	}
	h.pending = h.pending[:0]
	h.shadowMu.Unlock()
}

// applyCrash makes the mapping equal to what real NVM would hold after a
// power failure at this instant, then lets the ErrSimulatedCrash panic
// unwind. No-op in optimistic mode. Idempotent; once applied, later
// publishes are suppressed so post-"power-loss" stores cannot leak into
// the durable image.
func (h *Heap) applyCrash() {
	if h.shadow == nil {
		return
	}
	h.shadowMu.Lock()
	defer h.shadowMu.Unlock()
	if h.crashed {
		return
	}
	h.crashed = true
	// Flushes never covered by a fence die with the caches — whole, unless
	// SetTearFlushed lets their lines tear like the unflushed ones.
	flushed := map[uint64]bool{}
	if h.tearRnd != nil && !h.tearFlushed {
		for _, r := range h.pending {
			for off := r.first; off < r.end; off += CacheLineSize {
				flushed[off] = true
			}
		}
	}
	h.pending = nil
	mem := h.mem
	bound := h.scanBound()
	for off := uint64(0); off < bound; off += CacheLineSize {
		m := mem[off : off+CacheLineSize]
		s := h.shadow[off : off+CacheLineSize]
		if bytes.Equal(m, s) {
			continue
		}
		if h.tearRnd == nil || flushed[off] {
			copy(m, s) // pure loss: the whole line never left the cache
			continue
		}
		// Tear: each aligned 8-byte word of the dirty line independently
		// made it back to NVM or did not.
		for w := 0; w < CacheLineSize; w += 8 {
			if h.tearRnd.Intn(2) == 0 {
				copy(m[w:w+8], s[w:w+8])
			}
		}
		// The torn line is what the device now holds: freeze it in the
		// durable image too, or restoreCrashImage would undo the tear.
		copy(s, m)
	}
}

// restoreCrashImage re-copies the frozen durable image over the mapping
// just before Close munmaps it. After applyCrash, stores made while the
// panic unwinds (or by stragglers) still land in the file-backed mapping
// directly; without this, those post-"power-loss" bytes would reach the
// backing file. No-op unless a crash was applied.
func (h *Heap) restoreCrashImage() {
	if h.shadow == nil {
		return
	}
	h.shadowMu.Lock()
	defer h.shadowMu.Unlock()
	if !h.crashed {
		return
	}
	bound := h.scanBound()
	copy(h.mem[:bound], h.shadow[:bound])
}

// scanBound returns the exclusive upper bound of bytes any store can
// have touched: the current (possibly not yet durable) arena watermark,
// line-aligned and clamped to the heap. Everything beyond it is
// untouched zeros in both buffers. Caller holds shadowMu or tolerates a
// racing watermark read.
func (h *Heap) scanBound() uint64 {
	// blockHeaderSize of slack: bump initializes the next block's header
	// just beyond the watermark before advancing it.
	bound := h.u64(hdrArenaNext) + blockHeaderSize
	if bound < arenaStart {
		bound = arenaStart
	}
	if size := h.Size(); bound > size {
		bound = size
	}
	return alignUp(bound, CacheLineSize)
}
