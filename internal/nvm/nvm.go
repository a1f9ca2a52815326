// Package nvm simulates byte-addressable non-volatile memory for the
// Hyrise-NV storage engine.
//
// The simulated NVM device is a memory-mapped file (MAP_SHARED). Because
// the mapping is backed by the file, writes survive process restarts and
// pages are faulted in lazily, so the cost of re-opening a heap is
// independent of its size — exactly the property the paper exploits for
// instant restarts. Like a device, a heap has a fixed capacity: it is
// created at its size and mapped once, whole, for its life; the file is
// sparse, so it costs only the pages written. The paper's evaluation
// platform emulated NVM by adding latency to DRAM writes; we reproduce
// that with a configurable latency model applied at persist barriers
// (the clflush+sfence analog).
//
// Persistent data structures refer to each other with PPtr values — byte
// offsets from the beginning of the mapping — so the heap can be mapped at
// a different virtual address on every restart.
//
// Crash consistency follows the nvm_malloc "reserve/activate" discipline:
// allocating a block only makes it *reserved*; it becomes durably reachable
// when the caller stores its PPtr into an already-reachable structure and
// persists that store. Blocks reserved at the moment of a crash are leaked
// and can be reclaimed by an offline Scavenge; the restart path never scans
// the heap.
//
// Two crash models are available. The default *optimistic* model is the
// benchmark configuration: simulated crashes (FailAfter) cut execution at
// a persist barrier but every store issued so far survives, because the
// mapping is shared with the backing file. The *pessimistic* model
// (WithShadow) additionally tracks which cache lines have actually been
// covered by a persist barrier and, on a simulated crash, discards — or
// adversarially tears, down to the lines flushed for the barrier the
// crash falls on (SetTearFlushed) — everything that has not, so recovery
// sees what real hardware could leave. The pessimistic model is strictly
// for crash testing; it doubles memory use and adds a copy per barrier,
// so the optimistic model remains the default for benchmarks.
package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// PPtr is a persistent pointer: a byte offset from the start of the heap
// mapping. The zero value is the nil persistent pointer.
type PPtr uint64

// IsNil reports whether p is the nil persistent pointer.
func (p PPtr) IsNil() bool { return p == 0 }

// Add returns the pointer offset by n bytes.
func (p PPtr) Add(n uint64) PPtr { return p + PPtr(n) }

const (
	magic = 0x485952_4953454e56 // "HYRISENV"-ish tag
	// formatVersion covers everything stored in the heap, the structures
	// of the layers above included; Open refuses any other version.
	// 3 → 4: append arenas (skip-list node and column root layouts).
	// 4 → 5: main attribute vectors bit-sliced (pstruct.PackBits).
	// 5 → 6: delta-index skip lists gone; an indexed delta column keeps
	// its posting-list heads by value ID (storage.NVMDelta), and the
	// partition set three words per column.
	// 6 → 7: the delta dictionary index a split-ordered hash list
	// (pstruct.HashList) in place of the skip list.
	// 7 → 8: a main column's dictionary one block of sorted keys
	// (pstruct.SortedDict) in place of a vector of blob pointers; a
	// transaction context's 16-byte records on 16-byte boundaries.
	// 8 → 9: the delta dictionary index an extendible hash of 256-byte
	// buckets (pstruct.HashDict) in place of the split-ordered list.
	formatVersion = 9

	headerSize  = 4096
	rootDirOff  = headerSize
	rootSlots   = 64
	rootSlotLen = 64
	rootNameLen = 40
	rootDirSize = rootSlots * rootSlotLen

	arenaStart = rootDirOff + rootDirSize

	// blockAlign is the alignment of every allocation. 16 bytes keeps
	// uint64 fields atomically accessible.
	blockAlign = 16

	// blockHeaderSize precedes every allocation and records its size
	// class (for Free and Scavenge).
	blockHeaderSize = 16

	// CacheLineSize is the granularity of persist barriers.
	CacheLineSize = 64
)

// Header field offsets (all uint64 unless noted).
const (
	hdrMagic     = 0
	hdrVersion   = 8
	hdrSize      = 16
	hdrArenaNext = 24
	hdrEpoch     = 32
	hdrLargeFree = 40 // head of the large-block free list
	hdrFreeLists = 64 // numClasses uint64 slots
)

// Size classes for the segregated free lists. Allocations larger than the
// biggest class are carved directly from the bump arena.
var sizeClasses = [...]uint64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

const numClasses = len(sizeClasses)

// Block header states.
const (
	blockFree     = 0xF4EE
	blockReserved = 0x5E5E
)

var (
	// ErrTooSmall is returned when a heap file is too small to hold the
	// header and root directory.
	ErrTooSmall = errors.New("nvm: heap size too small")
	// ErrBadMagic is returned when opening a file that is not an nvm heap.
	ErrBadMagic = errors.New("nvm: bad magic (not an nvm heap)")
	// ErrBadVersion is returned when the on-NVM format version differs.
	ErrBadVersion = errors.New("nvm: unsupported format version")
	// ErrOutOfMemory is returned when the arena is exhausted.
	ErrOutOfMemory = errors.New("nvm: out of persistent memory")
	// ErrRootSlots is returned when the root directory is full.
	ErrRootSlots = errors.New("nvm: no free root slots")
	// ErrSimulatedCrash is the panic value raised by the fail-point
	// mechanism; tests recover it to simulate a power failure.
	ErrSimulatedCrash = errors.New("nvm: simulated crash")
	// ErrCorrupt is returned when a walk of a persistent structure
	// exceeds the steps its size allows: a damaged word made a cycle.
	ErrCorrupt = errors.New("nvm: heap corrupt")
)

// LatencyModel configures the emulated NVM latencies, mirroring the
// DRAM-based emulation platform of the paper. WriteNS is charged per cache
// line flushed at a persist barrier; FenceNS once per barrier; ReadNS (off
// by default) can be charged explicitly by read-side code via ChargeRead.
//
// DrainNS models the durability drain of flash-backed NVDIMMs, where the
// cheap store fence (FenceNS, a core-local pipeline stall emulated as a
// busy-wait) is distinct from flushing the DIMM's write queue down to
// flash. A drain is a device-level operation: it takes at least DrainNS
// wall-clock time, the waiting core is free to run other work (emulated
// by sleeping, not spinning), and concurrent drain requests coalesce —
// one device flush cycle satisfies every requester that was already
// waiting when it began, exactly like fsync absorption on an SSD. With
// DrainNS = 0 (battery/ADR-class hardware) Drain degenerates to Fence.
type LatencyModel struct {
	WriteNS int64
	FenceNS int64
	ReadNS  int64
	DrainNS int64
}

// FaultInjector lets a fault-injection plane (internal/fault)
// intercede at the heap's allocation and persistence primitives,
// modeling device misbehavior: media/arena exhaustion, persist-latency
// spikes, and durability-drain stalls. An injector is consulted with
// one atomic load per site, so an unarmed heap pays nothing.
type FaultInjector interface {
	// AllocFault is consulted at the top of Alloc; a non-nil error
	// (which should wrap ErrOutOfMemory) fails the allocation before
	// any heap state changes.
	AllocFault(size uint64) error
	// BarrierDelay returns extra latency to charge at a fence barrier
	// (busy-wait, like the base latency model); 0 injects nothing.
	BarrierDelay() time.Duration
	// DrainDelay returns an extra stall for a durability drain
	// (sleeping, like the modeled drain cycle); 0 injects nothing.
	DrainDelay() time.Duration
}

// Stats counts persistence primitives since the heap was opened.
type Stats struct {
	Flushes   uint64 // cache lines flushed
	Fences    uint64 // persist barriers issued
	Drains    uint64 // durability drains issued (each also counts one fence)
	Allocs    uint64
	Frees     uint64
	BytesUsed uint64 // high-water bump offset (excludes freed blocks)
	ReadLines uint64 // lines charged by the read model (ChargeRead)
}

// Heap is a simulated NVM heap backed by a memory-mapped file.
//
// All exported methods are safe for concurrent use unless noted.
type Heap struct {
	// mem is the one mapping of the whole file, set at map time and
	// unmapped by Close; a heap never changes size. The mapping holds the
	// file, so its descriptor is closed once it is mapped.
	mem []byte

	lat LatencyModel

	allocMu sync.Mutex

	flushes atomic.Uint64
	fences  atomic.Uint64
	drains  atomic.Uint64
	allocs  atomic.Uint64
	frees   atomic.Uint64
	reads   atomic.Uint64

	// Drain-cycle coalescing (see Drain). A cycle started while a
	// requester was already waiting covers that requester; requesters
	// arriving mid-cycle wait for the next one.
	drainMu        sync.Mutex
	drainCond      *sync.Cond
	drainRunning   bool
	drainStarted   uint64
	drainCompleted uint64

	// failAfter, when > 0, counts down on every persist barrier and
	// panics with ErrSimulatedCrash when it reaches zero.
	failAfter atomic.Int64

	// faultInj, when non-nil, is the armed fault injector (see
	// FaultInjector). Stored behind an atomic pointer so arming and
	// disarming race safely with hot-path loads.
	faultInj atomic.Pointer[FaultInjector]

	rootMu sync.Mutex

	// Pessimistic crash model (WithShadow). shadow mirrors the *durable
	// image* of the heap: a write reaches it only when a persist barrier
	// covering its cache line completes. On a simulated crash the dirty
	// lines (mem != shadow) are reverted to — or torn against — the
	// shadow before the panic unwinds. See shadow.go.
	shadowOn bool
	shadowMu sync.Mutex
	shadow   []byte
	pending  []flushRange // flushed but not yet fenced line ranges
	tearRnd  *rand.Rand
	// tearFlushed lets a tearing crash tear the pending lines too.
	tearFlushed bool
	crashed     bool
}

// Option configures a Heap at Create/Open time.
type Option func(*Heap)

// WithLatency sets the emulated NVM latency model.
func WithLatency(m LatencyModel) Option {
	return func(h *Heap) { h.lat = m }
}

// Create initializes a new heap file of the given size and maps it.
// The file must not already exist with conflicting content; an existing
// file is truncated. The file is sparse: a heap costs only the pages
// written, however large its size.
func Create(path string, size uint64, opts ...Option) (*Heap, error) {
	if size < arenaStart+4096 {
		return nil, ErrTooSmall
	}
	size = alignUp(size, 4096)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nvm: create %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(int64(size)); err != nil {
		return nil, fmt.Errorf("nvm: truncate: %w", err)
	}
	h, err := mapHeap(f, size, opts)
	if err != nil {
		return nil, err
	}
	h.putU64(hdrMagic, magic)
	h.putU64(hdrVersion, formatVersion)
	h.putU64(hdrSize, size)
	h.putU64(hdrArenaNext, arenaStart)
	h.putU64(hdrEpoch, 1)
	h.putU64(hdrLargeFree, 0)
	for c := 0; c < numClasses; c++ {
		h.putU64(hdrFreeLists+uint64(c)*8, 0)
	}
	h.Persist(0, headerSize+rootDirSize)
	return h, nil
}

// VolatileDir is the directory on tmpfs that CreateVolatile puts its
// files in: /dev/shm where that is a directory, os.TempDir otherwise.
func VolatileDir() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// CreateVolatile creates a heap that does not persist, for the engines
// whose durability lies elsewhere (a log) or nowhere: the same
// structures on a medium without durability. Its file lies in
// VolatileDir and is unlinked at once, so its memory is released with
// the mapping at Close. Its size is the capacity of that filesystem, the
// most the file could ever hold. It has no latency model, so a flush,
// fence or drain costs an atomic add.
func CreateVolatile() (*Heap, error) {
	dir := VolatileDir()
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return nil, fmt.Errorf("nvm: volatile heap: statfs %s: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, "hyrisenv-heap-*")
	if err != nil {
		return nil, fmt.Errorf("nvm: volatile heap: %w", err)
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	return Create(path, fs.Blocks*uint64(fs.Bsize))
}

// Open maps an existing heap file and checks its header (checkHeader).
// Opening performs O(1) work regardless of heap size: only the header
// and root directory pages are touched.
func Open(path string, opts ...Option) (*Heap, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("nvm: open %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("nvm: stat: %w", err)
	}
	if st.Size() < arenaStart {
		return nil, ErrTooSmall
	}
	h, err := mapHeap(f, uint64(st.Size()), opts)
	if err != nil {
		return nil, err
	}
	if err := h.checkHeader(); err != nil {
		h.Close()
		return nil, err
	}
	// Bump the restart epoch so structures can detect they crossed a
	// restart (used e.g. to invalidate transient caches).
	h.putU64(hdrEpoch, h.u64(hdrEpoch)+1)
	h.Persist(hdrEpoch, 8)
	return h, nil
}

func mapHeap(f *os.File, size uint64, opts []Option) (*Heap, error) {
	mem, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("nvm: mmap: %w", err)
	}
	h := &Heap{mem: mem}
	h.drainCond = sync.NewCond(&h.drainMu)
	for _, o := range opts {
		o(h)
	}
	if h.shadowOn {
		// The durable image is anonymous and private: a page costs memory
		// only once a persist barrier writes it, so a heap that uses a few
		// pages of a large arena does not zero the whole of it.
		h.shadow, err = syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
		if err != nil {
			syscall.Munmap(mem) //nolint:errcheck — the mmap error is the one to report
			return nil, fmt.Errorf("nvm: shadow mmap: %w", err)
		}
		// The file contents at map time ARE the durable image. Only the
		// used prefix needs copying: bytes at or beyond arenaNext have
		// never been written (the file is created zero-filled and the
		// watermark advances before any store lands), so mem and shadow
		// already agree there. On Create the header is still zero, so
		// nothing is copied and the header persist publishes it.
		used := binary.LittleEndian.Uint64(mem[hdrArenaNext:])
		if used = alignUp(used, 4096); used > size {
			used = size
		}
		copy(h.shadow[:used], mem[:used])
	}
	return h, nil
}

// Close unmaps the heap. Data durability does not depend on a clean
// close.
func (h *Heap) Close() error {
	var firstErr error
	if h.mem != nil {
		h.restoreCrashImage()
		h.shadowMu.Lock()
		if h.shadow != nil {
			if err := syscall.Munmap(h.shadow); err != nil {
				firstErr = fmt.Errorf("nvm: munmap shadow: %w", err)
			}
			h.shadow = nil
		}
		h.shadowMu.Unlock()
		if err := syscall.Munmap(h.mem); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("nvm: munmap: %w", err)
		}
		h.mem = nil
	}
	return firstErr
}

// Sync flushes the whole mapping to the backing file via msync. It is not
// required for the simulation (the page cache survives process exit) but
// is exposed for durability against OS crashes.
func (h *Heap) Sync() error {
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&h.mem[0])), uintptr(len(h.mem)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return fmt.Errorf("nvm: msync: %w", errno)
	}
	return nil
}

// Size returns the total heap size in bytes.
func (h *Heap) Size() uint64 { return uint64(len(h.mem)) }

// Epoch returns the restart epoch: 1 on a fresh heap, incremented on every
// Open. Persistent structures compare a stored epoch against this to know
// whether transient state must be re-derived.
func (h *Heap) Epoch() uint64 { return h.u64(hdrEpoch) }

// Bytes returns the n bytes at p as a slice aliasing the mapping.
// The caller must ensure p..p+n lies inside the heap. The slice stays
// valid until Close.
func (h *Heap) Bytes(p PPtr, n uint64) []byte {
	return h.mem[p : uint64(p)+n : uint64(p)+n]
}

// Words returns the n uint64 words at p (which must be 8-byte aligned)
// as a slice aliasing the mapping, for bulk reads with sync/atomic loads
// of its elements. Like Bytes, the slice stays valid until Close.
func (h *Heap) Words(p PPtr, n uint64) []uint64 {
	if p%8 != 0 {
		panic(fmt.Sprintf("nvm: unaligned word access at %d", p))
	}
	if n == 0 {
		return nil
	}
	b := h.Bytes(p, n*8)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

// U64 atomically loads the uint64 at p (which must be 8-byte aligned).
func (h *Heap) U64(p PPtr) uint64 {
	return atomic.LoadUint64(h.u64ptr(p))
}

// SetU64 atomically stores v at p (which must be 8-byte aligned). The
// store is not durable until a Persist covering p completes.
func (h *Heap) SetU64(p PPtr, v uint64) {
	atomic.StoreUint64(h.u64ptr(p), v)
}

// U32 atomically loads the uint32 at p (which must be 4-byte aligned).
func (h *Heap) U32(p PPtr) uint32 {
	if p%4 != 0 {
		panic(fmt.Sprintf("nvm: unaligned atomic access at %d", p))
	}
	return atomic.LoadUint32((*uint32)(unsafe.Pointer(&h.mem[p])))
}

// SetU32 atomically stores v at p (which must be 4-byte aligned). The
// store is not durable until a Persist covering p completes.
func (h *Heap) SetU32(p PPtr, v uint32) {
	if p%4 != 0 {
		panic(fmt.Sprintf("nvm: unaligned atomic access at %d", p))
	}
	atomic.StoreUint32((*uint32)(unsafe.Pointer(&h.mem[p])), v)
}

func (h *Heap) u64ptr(p PPtr) *uint64 {
	if p%8 != 0 {
		panic(fmt.Sprintf("nvm: unaligned atomic access at %d", p))
	}
	return (*uint64)(unsafe.Pointer(&h.mem[p]))
}

func (h *Heap) u64(off uint64) uint64       { return h.U64(PPtr(off)) }
func (h *Heap) putU64(off uint64, v uint64) { h.SetU64(PPtr(off), v) }

// alignUp rounds n up to a multiple of a (a power of two).
func alignUp(n, a uint64) uint64 { return (n + a - 1) &^ (a - 1) }

// --- Persist barriers -----------------------------------------------------

// Persist flushes the address range [p, p+n) and issues a fence — the
// analog of clflush-per-line followed by sfence. Under the latency model it
// charges WriteNS per 64-byte line plus FenceNS. It also drives the
// fail-point countdown used by crash tests.
//
// In pessimistic shadow mode the flushed lines are published to the
// durable image only after the fence's crash check passes: a crash AT
// this barrier loses (or tears) the very lines it was flushing, which is
// what real hardware guarantees — clflush completion is only ordered by
// the fence, and power can fail before it.
func (h *Heap) Persist(p PPtr, n uint64) {
	h.Flush(p, n)
	h.Fence()
}

// Flush flushes the cache lines covering [p, p+n) WITHOUT fencing — the
// clflushopt/clwb analog. Flushed stores are not durable until a
// subsequent Fence (or Persist) completes: in pessimistic shadow mode the
// flushed lines are queued and reach the durable image only at the next
// fence whose crash check passes. Group commit uses Flush to batch many
// lines under a single fence, amortizing the FenceNS tax across a whole
// commit group.
func (h *Heap) Flush(p PPtr, n uint64) {
	if n == 0 {
		return
	}
	first := uint64(p) &^ (CacheLineSize - 1)
	last := (uint64(p) + n - 1) &^ (CacheLineSize - 1)
	lines := (last-first)/CacheLineSize + 1
	h.flushes.Add(lines)
	if h.lat.WriteNS > 0 {
		spin(h.lat.WriteNS * int64(lines))
	}
	if h.shadow != nil {
		h.addPending(first, last+CacheLineSize)
	}
}

// Fence issues a store fence (sfence analog): it orders prior flushes
// before subsequent ones and makes them durable. Under the latency model
// it charges FenceNS. In pessimistic shadow mode, line ranges queued by
// earlier Flush calls are published to the durable image only after the
// fence's crash check passes — a crash AT the fence loses everything
// flushed since the previous fence. A bare fence with no preceding flush
// publishes nothing: sfence orders flushes, it does not flush anything
// itself.
//
// The pending-flush queue is heap-global, so in shadow mode a fence on
// one goroutine publishes flushes issued on another. That is marginally
// optimistic for concurrent persist protocols, but the crash matrix
// drives workloads single-threaded, where the model is exact.
func (h *Heap) Fence() {
	h.fences.Add(1)
	if h.lat.FenceNS > 0 {
		spin(h.lat.FenceNS)
	}
	if fi := h.injector(); fi != nil {
		// Injected persist-latency spike: charged like the base latency
		// model (busy-wait), since PM tail latencies sit below timer
		// resolution just as the median does.
		if d := fi.BarrierDelay(); d > 0 {
			spin(int64(d))
		}
	}
	if n := h.failAfter.Load(); n > 0 {
		if h.failAfter.Add(-1) == 0 {
			h.applyCrash()
			panic(ErrSimulatedCrash)
		}
	}
	if h.shadow != nil {
		h.publishPending()
	}
}

// Drain issues a durability drain: the device-level barrier after which
// everything previously flushed is guaranteed to survive power loss even
// on flash-backed NVDIMMs, whose store fences order the write queue but
// do not empty it. Commit protocols use Drain at their single durability
// point (analogous to fsync after buffered writes) and plain Fence for
// the ordering barriers in between.
//
// Durability semantics are those of Fence — Drain issues one internally,
// so shadow-mode publication and the crash fail-point behave identically
// and DrainNS = 0 degenerates to exactly a fence. What DrainNS adds is
// the cost model: the caller joins the next device flush cycle, sleeping
// (not spinning — the core is free) until a full cycle of at least
// DrainNS has elapsed that began after the call. Concurrent callers
// coalesce onto one cycle, which is precisely the effect persist-group
// commit exploits: one drain per batch instead of one per transaction.
func (h *Heap) Drain() {
	h.drains.Add(1)
	if fi := h.injector(); fi != nil {
		// Injected drain stall: the device's flush cycle runs long. The
		// waiting core sleeps (it is free to run other work), exactly
		// like the modeled cycle — callers must surface the added time
		// as deadline errors, not wedged connections.
		if d := fi.DrainDelay(); d > 0 {
			time.Sleep(d)
		}
	}
	if h.lat.DrainNS > 0 {
		h.awaitDrainCycle(time.Duration(h.lat.DrainNS))
	}
	h.Fence()
}

// awaitDrainCycle blocks until a full drain cycle of length d that
// started at or after the call has completed. The first waiter with no
// cycle in flight runs the cycle itself (sleeping d, then waking the
// cohort); everyone else waits for that cycle — or, if one was already
// running when they arrived, for the one after it, since an in-flight
// cycle began before their flushes reached the device queue.
func (h *Heap) awaitDrainCycle(d time.Duration) {
	h.drainMu.Lock()
	need := h.drainStarted + 1
	for h.drainCompleted < need {
		if !h.drainRunning {
			h.drainRunning = true
			h.drainStarted++
			mine := h.drainStarted
			h.drainMu.Unlock()
			time.Sleep(d)
			h.drainMu.Lock()
			h.drainRunning = false
			h.drainCompleted = mine
			h.drainCond.Broadcast()
		} else {
			h.drainCond.Wait()
		}
	}
	h.drainMu.Unlock()
}

// ChargeRead charges the read latency model for n bytes. The storage layer
// calls this on NVM read paths when a read latency is configured.
func (h *Heap) ChargeRead(n uint64) {
	if h.lat.ReadNS > 0 && n > 0 {
		lines := (n + CacheLineSize - 1) / CacheLineSize
		h.reads.Add(lines)
		spin(h.lat.ReadNS * int64(lines))
	}
}

// ReadLatencyEnabled reports whether a read latency is configured, letting
// hot paths skip the accounting entirely.
func (h *Heap) ReadLatencyEnabled() bool { return h.lat.ReadNS > 0 }

// FailAfter arms the fail-point: after n more persist barriers the heap
// panics with ErrSimulatedCrash. n <= 0 disarms it. Tests use this to cut
// power at a precise point in a persistence protocol.
func (h *Heap) FailAfter(n int64) { h.failAfter.Store(n) }

// SetFaultInjector arms (or, with nil, disarms) a fault injector on
// the heap. Alloc, Fence and Drain consult it; see FaultInjector.
func (h *Heap) SetFaultInjector(fi FaultInjector) {
	if fi == nil {
		h.faultInj.Store(nil)
		return
	}
	h.faultInj.Store(&fi)
}

// injector returns the armed fault injector, or nil.
func (h *Heap) injector() FaultInjector {
	if p := h.faultInj.Load(); p != nil {
		return *p
	}
	return nil
}

// ResidentPages counts the pages of [0, watermark) that this process has
// touched since it mapped the heap, by bit 63 (page present) of
// /proc/self/pagemap; it changes nothing. The kernel maps a few
// neighbours of a page read in, so the count bounds the pages read.
func (h *Heap) ResidentPages() (uint64, error) {
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		return 0, fmt.Errorf("nvm: resident pages: %w", err)
	}
	defer f.Close()
	page := uint64(os.Getpagesize())
	first := uint64(uintptr(unsafe.Pointer(&h.mem[0]))) / page
	buf := make([]byte, 8*(alignUp(h.u64(hdrArenaNext), page)/page))
	if _, err := f.ReadAt(buf, int64(8*first)); err != nil {
		return 0, fmt.Errorf("nvm: resident pages: %w", err)
	}
	var resident uint64
	for i := 0; i < len(buf); i += 8 {
		resident += binary.LittleEndian.Uint64(buf[i:]) >> 63
	}
	return resident, nil
}

// Stats returns persistence counters.
func (h *Heap) Stats() Stats {
	return Stats{
		Flushes:   h.flushes.Load(),
		Fences:    h.fences.Load(),
		Drains:    h.drains.Load(),
		Allocs:    h.allocs.Load(),
		Frees:     h.frees.Load(),
		BytesUsed: h.u64(hdrArenaNext),
		ReadLines: h.reads.Load(),
	}
}

// ResetStats zeroes the persistence counters (the allocator watermark is
// unaffected).
func (h *Heap) ResetStats() {
	h.flushes.Store(0)
	h.fences.Store(0)
	h.drains.Store(0)
	h.allocs.Store(0)
	h.frees.Store(0)
	h.reads.Store(0)
}

// --- Allocation ------------------------------------------------------------

// classFor returns the index of the smallest size class >= n, or -1 when n
// exceeds the largest class.
func classFor(n uint64) int {
	for i, c := range sizeClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// Alloc reserves a block of at least n bytes and returns a pointer to its
// payload. The block is merely *reserved*: it becomes durably owned only
// once the caller persists a reachable reference to it (reserve/activate).
// The returned payload is zeroed.
func (h *Heap) Alloc(n uint64) (PPtr, error) {
	if n == 0 {
		n = 1
	}
	if fi := h.injector(); fi != nil {
		// Injected exhaustion fails before any heap state changes, so a
		// faulted Alloc is indistinguishable from a genuinely full arena.
		if err := fi.AllocFault(n); err != nil {
			return 0, err
		}
	}
	h.allocs.Add(1)
	c := classFor(n)
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	if c >= 0 {
		// Try the free list first.
		headOff := PPtr(hdrFreeLists + uint64(c)*8)
		if head := h.U64(headOff); head != 0 {
			next := h.U64(PPtr(head) + blockHeaderSize) // next link lives in payload
			h.SetU64(headOff, next)
			h.Persist(headOff, 8)
			p := PPtr(head)
			h.SetU64(p+8, blockReserved)
			// The stamp must be durable before the caller can activate
			// the block: a crash after the (persisted) list pop but
			// before the stamp would leave the block durably Free yet on
			// no free list, invisible to Scavenge's reserved-sweep.
			h.Persist(p+8, 8)
			payload := p + blockHeaderSize
			clear(h.Bytes(payload, sizeClasses[c]))
			return payload, nil
		}
		return h.bump(sizeClasses[c], uint64(c))
	}
	want := alignUp(n, blockAlign)
	if p, err := h.allocLargeLocked(want); err != nil || !p.IsNil() {
		return p, err
	}
	return h.bump(want, uint64(numClasses)+want)
}

// allocLargeLocked takes a block from the large free list whose payload
// is at least want bytes but not wastefully bigger (first fit within 2x),
// or returns nil when none fits. The list cannot hold more blocks than
// fit in the heap, so a longer walk is a cycle a damaged link made:
// ErrCorrupt. Caller holds allocMu.
func (h *Heap) allocLargeLocked(want uint64) (PPtr, error) {
	prevSlot := PPtr(hdrLargeFree)
	cur := PPtr(h.U64(prevSlot))
	for steps := h.Size() / (blockHeaderSize + sizeClasses[numClasses-1]); !cur.IsNil(); steps-- {
		if steps == 0 {
			return 0, fmt.Errorf("%w: the large free list is longer than the heap holds", ErrCorrupt)
		}
		payload := cur + blockHeaderSize
		size := h.U64(cur) - uint64(numClasses)
		next := PPtr(h.U64(payload))
		if size >= want && size <= want*2 {
			h.SetU64(prevSlot, uint64(next))
			h.Persist(prevSlot, 8)
			h.SetU64(cur+8, blockReserved)
			// Same ordering as the class free lists: the Reserved stamp
			// must be durable before the block can be activated, or a
			// crash strands it off-list in Free state.
			h.Persist(cur+8, 8)
			clear(h.Bytes(payload, size))
			return payload, nil
		}
		prevSlot = payload
		cur = next
	}
	return 0, nil
}

// bump carves a block from the arena. classTag encodes either a
// size-class index (< numClasses) or numClasses+size for large blocks.
func (h *Heap) bump(payload uint64, classTag uint64) (PPtr, error) {
	next := h.u64(hdrArenaNext)
	total := blockHeaderSize + payload
	if next+total > h.Size() {
		return 0, ErrOutOfMemory
	}
	// Initialize the header before advancing the watermark: a crash
	// between the two barriers then leaves the header bytes harmlessly
	// beyond the durable watermark (the next bump overwrites them),
	// whereas the reverse order would expose an uninitialized block to
	// every post-crash arena walk.
	p := PPtr(next)
	h.SetU64(p, classTag)
	h.SetU64(p+8, blockReserved)
	h.Persist(p, blockHeaderSize)
	h.putU64(hdrArenaNext, next+total)
	h.Persist(hdrArenaNext, 8)
	return p + blockHeaderSize, nil
}

// Free returns a block previously obtained from Alloc to the free list
// of its size class (or to the large-block free list — no splitting or
// coalescing is performed).
//
// Free must only be called once the block is durably unreachable;
// otherwise a crash could resurrect a recycled block.
func (h *Heap) Free(payload PPtr) {
	if payload.IsNil() {
		return
	}
	h.frees.Add(1)
	p := payload - blockHeaderSize
	tag := h.U64(p)
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	headOff := PPtr(hdrFreeLists + tag*8)
	if tag >= uint64(numClasses) {
		headOff = PPtr(hdrLargeFree)
	}
	h.SetU64(p+8, blockFree)
	h.SetU64(payload, h.U64(headOff)) // next link in payload
	h.Persist(p, blockHeaderSize+8)
	h.SetU64(headOff, uint64(p))
	h.Persist(headOff, 8)
}

// BlockSize returns the usable payload size of an allocated block.
func (h *Heap) BlockSize(payload PPtr) uint64 {
	tag := h.U64(payload - blockHeaderSize)
	if tag < uint64(numClasses) {
		return sizeClasses[tag]
	}
	return tag - uint64(numClasses)
}

// --- Root directory ---------------------------------------------------------

// rootSlot layout: name [rootNameLen]byte | ptr uint64 | aux uint64 | pad.
func (h *Heap) rootSlot(i int) PPtr { return PPtr(rootDirOff + i*rootSlotLen) }

// SetRoot durably associates name with pointer p (and an auxiliary word),
// creating or updating the named root. Named roots are the anchors from
// which all persistent structures must be reachable.
func (h *Heap) SetRoot(name string, p PPtr, aux uint64) error {
	if len(name) == 0 || len(name) > rootNameLen {
		return fmt.Errorf("nvm: invalid root name %q", name)
	}
	h.rootMu.Lock()
	defer h.rootMu.Unlock()
	free := -1
	for i := 0; i < rootSlots; i++ {
		s := h.rootSlot(i)
		cur := h.rootName(s)
		if cur == name {
			h.SetU64(s.Add(rootNameLen), uint64(p))
			h.SetU64(s.Add(rootNameLen+8), aux)
			h.Persist(s, rootSlotLen)
			return nil
		}
		if cur == "" && free < 0 {
			free = i
		}
	}
	if free < 0 {
		return ErrRootSlots
	}
	s := h.rootSlot(free)
	// Write pointer+aux first, then the name; a torn name is detected by
	// readers as "no such root" and the slot is safely overwritten later.
	h.SetU64(s.Add(rootNameLen), uint64(p))
	h.SetU64(s.Add(rootNameLen+8), aux)
	h.Persist(s.Add(rootNameLen), 16)
	nb := h.Bytes(s, rootNameLen)
	clear(nb)
	copy(nb, name)
	h.Persist(s, rootNameLen)
	return nil
}

// Root returns the pointer and auxiliary word of the named root.
// ok is false when no such root exists.
func (h *Heap) Root(name string) (p PPtr, aux uint64, ok bool) {
	h.rootMu.Lock()
	defer h.rootMu.Unlock()
	for i := 0; i < rootSlots; i++ {
		s := h.rootSlot(i)
		if h.rootName(s) == name {
			return PPtr(h.U64(s.Add(rootNameLen))), h.U64(s.Add(rootNameLen + 8)), true
		}
	}
	return 0, 0, false
}

// DeleteRoot removes the named root. Deleting a missing root is a no-op.
func (h *Heap) DeleteRoot(name string) {
	h.rootMu.Lock()
	defer h.rootMu.Unlock()
	for i := 0; i < rootSlots; i++ {
		s := h.rootSlot(i)
		if h.rootName(s) == name {
			clear(h.Bytes(s, rootNameLen))
			h.Persist(s, rootNameLen)
			return
		}
	}
}

// Roots returns the names of all live roots.
func (h *Heap) Roots() []string {
	h.rootMu.Lock()
	defer h.rootMu.Unlock()
	var names []string
	for i := 0; i < rootSlots; i++ {
		if n := h.rootName(h.rootSlot(i)); n != "" {
			names = append(names, n)
		}
	}
	return names
}

func (h *Heap) rootName(s PPtr) string {
	b := h.Bytes(s, rootNameLen)
	end := 0
	for end < len(b) && b[end] != 0 {
		end++
	}
	return string(b[:end])
}

// --- Encoding helpers --------------------------------------------------------

// PutU64 stores v little-endian at p without atomicity (bulk writes).
func (h *Heap) PutU64(p PPtr, v uint64) {
	binary.LittleEndian.PutUint64(h.mem[p:], v)
}

// GetU64 loads a little-endian uint64 at p without atomicity.
func (h *Heap) GetU64(p PPtr) uint64 {
	return binary.LittleEndian.Uint64(h.mem[p:])
}

// PutU32 stores v little-endian at p.
func (h *Heap) PutU32(p PPtr, v uint32) {
	binary.LittleEndian.PutUint32(h.mem[p:], v)
}

// GetU32 loads a little-endian uint32 at p.
func (h *Heap) GetU32(p PPtr) uint32 {
	return binary.LittleEndian.Uint32(h.mem[p:])
}
