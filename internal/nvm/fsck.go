package nvm

import (
	"errors"
	"fmt"
)

// FsckReport is the result of a heap integrity walk. Stranded blocks
// (crash leaks awaiting Scavenge) are counted but are not violations;
// anything in Issues is.
type FsckReport struct {
	Blocks           int    // blocks seen by the arena walk
	Reserved         int    // blocks in Reserved state
	Free             int    // blocks in Free state
	StrandedFree     int    // Free blocks on no free list (crash leak)
	StrandedReserved int    // Reserved blocks not durably reachable (crash leak); -1 without reachability
	ArenaBytes       uint64 // bump watermark minus arena start
	Issues           []string
}

// Clean reports whether the walk found no invariant violations.
func (r *FsckReport) Clean() bool { return len(r.Issues) == 0 }

// Err returns nil for a clean report, or an error naming every issue.
func (r *FsckReport) Err() error {
	if r.Clean() {
		return nil
	}
	errs := make([]error, len(r.Issues))
	for i, s := range r.Issues {
		errs[i] = errors.New(s)
	}
	return fmt.Errorf("nvm: fsck found %d issue(s): %w", len(r.Issues), errors.Join(errs...))
}

func (r *FsckReport) issuef(format string, args ...any) {
	r.Issues = append(r.Issues, fmt.Sprintf(format, args...))
}

// Fsck walks the whole heap and verifies every allocator invariant the
// persistence protocol promises to preserve across any crash point:
//
//   - header sanity: the checks Open makes (checkHeader) and a non-zero
//     epoch;
//   - root directory: every named root points into the allocated arena;
//   - arena walk: back-to-back blocks with valid size tags and states,
//     none overrunning the watermark (the same walk Scavenge performs);
//   - free lists: acyclic, every linked block is a walked block in Free
//     state on the matching class list, and on exactly one list;
//   - reachability (when the caller supplies the live object graph):
//     every durably reachable payload is a walked Reserved block and on
//     no free list.
//
// Like Scavenge, Fsck is an offline O(heap size) operation and must not
// run concurrently with allocation. reachable may be nil to skip the
// reachability checks.
func (h *Heap) Fsck(reachable func(yield func(PPtr))) *FsckReport {
	r := &FsckReport{StrandedReserved: -1}

	if err := h.checkHeader(); err != nil {
		r.issuef("header: %v", err)
		return r // the arena walk would be unbounded
	}
	if h.u64(hdrEpoch) == 0 {
		r.issuef("header: restart epoch is zero")
	}
	next := h.u64(hdrArenaNext)
	r.ArenaBytes = next - arenaStart

	// Arena walk: every byte in [arenaStart, next) belongs to exactly one
	// block = header + payload.
	type blockInfo struct {
		state uint64
		tag   uint64
	}
	blocks := make(map[PPtr]blockInfo)
	p := PPtr(arenaStart)
	for uint64(p) < next {
		if uint64(p)+blockHeaderSize > next {
			r.issuef("arena: block header at %d overruns watermark %d", p, next)
			break
		}
		//nvmcheck:ignore recoverycheck p is the arena-walk cursor, not a field address: arenaStart/numClasses key its advance, and block headers are written by the allocator at computed addresses outside the constant-keyed field model
		tag := h.U64(p)
		state := h.U64(p + 8)
		var payloadSize uint64
		if tag < uint64(numClasses) {
			payloadSize = sizeClasses[tag]
		} else {
			payloadSize = tag - uint64(numClasses)
			if payloadSize == 0 || payloadSize > h.Size() || payloadSize%blockAlign != 0 {
				r.issuef("arena: block at %d has invalid size tag %#x", p, tag)
				break // the walk has lost its footing
			}
		}
		payload := p + blockHeaderSize
		if uint64(payload)+payloadSize > next {
			r.issuef("arena: block at %d (%d payload bytes) overruns watermark %d", p, payloadSize, next)
			break
		}
		switch state {
		case blockReserved:
			r.Reserved++
		case blockFree:
			r.Free++
		default:
			r.issuef("arena: block at %d has invalid state %#x", p, state)
		}
		blocks[payload] = blockInfo{state: state, tag: tag}
		r.Blocks++
		p = payload.Add(payloadSize)
	}

	// Free-list walks.
	onList := make(map[PPtr]bool)
	walkList := func(headOff PPtr, class int) {
		name := fmt.Sprintf("free list %d", class)
		if class < 0 {
			name = "large free list"
		}
		seen := make(map[PPtr]bool)
		for cur := PPtr(h.U64(headOff)); !cur.IsNil(); {
			payload := cur + blockHeaderSize
			if seen[payload] {
				r.issuef("%s: cycle at block %d", name, cur)
				return
			}
			seen[payload] = true
			b, walked := blocks[payload]
			if !walked {
				r.issuef("%s: links %d, which is not a block", name, cur)
				return
			}
			if b.state != blockFree {
				r.issuef("%s: block %d has state %#x, want Free", name, cur, b.state)
			}
			if class >= 0 && b.tag != uint64(class) {
				r.issuef("%s: block %d has class tag %d", name, cur, b.tag)
			}
			if class < 0 && b.tag < uint64(numClasses) {
				r.issuef("%s: block %d is a class-%d block", name, cur, b.tag)
			}
			if onList[payload] {
				r.issuef("%s: block %d is on more than one free list", name, cur)
			}
			onList[payload] = true
			cur = PPtr(h.U64(payload)) // next link lives in the payload
		}
	}
	for c := 0; c < numClasses; c++ {
		walkList(PPtr(hdrFreeLists+uint64(c)*8), c)
	}
	walkList(PPtr(hdrLargeFree), -1)

	// Root directory: roots must point at walked payloads.
	for i := 0; i < rootSlots; i++ {
		s := h.rootSlot(i)
		name := h.rootName(s)
		if name == "" {
			continue
		}
		rp := PPtr(h.U64(s.Add(rootNameLen)))
		if rp.IsNil() {
			continue
		}
		if _, walked := blocks[rp]; !walked {
			r.issuef("root %q: pointer %d is not a block payload", name, rp)
		}
	}

	// Reachability: the live graph must consist of Reserved, off-list
	// blocks.
	var live map[PPtr]bool
	if reachable != nil {
		live = make(map[PPtr]bool)
		reachable(func(rp PPtr) {
			if live[rp] {
				return
			}
			live[rp] = true
			b, walked := blocks[rp]
			switch {
			case !walked:
				r.issuef("reachability: live pointer %d is not a block payload", rp)
			case b.state != blockReserved:
				r.issuef("reachability: live block %d has state %#x, want Reserved", rp, b.state)
			case onList[rp]:
				r.issuef("reachability: live block %d is on a free list", rp)
			}
		})
		r.StrandedReserved = 0
	}
	for payload, b := range blocks {
		if b.state == blockFree && !onList[payload] {
			r.StrandedFree++
		}
		if live != nil && b.state == blockReserved && !live[payload] {
			r.StrandedReserved++
		}
	}
	return r
}

// checkHeader verifies the words Open and every later walk trust: magic
// and version, the recorded size against the file's, the watermark in
// [arenaStart, size], and each free-list head and root-slot pointer nil
// or block-aligned in [arenaStart, watermark). It reads the first two
// pages alone. A damaged word is an error wrapping ErrCorrupt.
func (h *Heap) checkHeader() error {
	if h.u64(hdrMagic) != magic {
		return ErrBadMagic
	}
	if h.u64(hdrVersion) != formatVersion {
		return ErrBadVersion
	}
	size := h.Size()
	if got := h.u64(hdrSize); got != size {
		return fmt.Errorf("%w: recorded size %d != file size %d", ErrCorrupt, got, size)
	}
	next := h.u64(hdrArenaNext)
	if next < arenaStart || next > size {
		return fmt.Errorf("%w: arena watermark %d outside [%d, %d]", ErrCorrupt, next, arenaStart, size)
	}
	ptrs := []uint64{hdrLargeFree}
	for c := 0; c < numClasses; c++ {
		ptrs = append(ptrs, hdrFreeLists+uint64(c)*8)
	}
	for i := 0; i < rootSlots; i++ {
		ptrs = append(ptrs, uint64(h.rootSlot(i).Add(rootNameLen)))
	}
	for _, off := range ptrs {
		if p := h.u64(off); p != 0 && (p%blockAlign != 0 || p < arenaStart || p >= next) {
			return fmt.Errorf("%w: word %d holds %d, not a block payload or header in [%d, %d)", ErrCorrupt, off, p, arenaStart, next)
		}
	}
	return nil
}

// CheckBlock verifies that p is the payload pointer of a Reserved block
// holding at least n bytes — the precondition for any pointer stored
// inside a live persistent structure. It is the bounds check the
// structural walkers (pstruct, storage) apply to every pointer they
// follow, so a torn or lost pointer store is reported instead of
// panicking the walk.
func (h *Heap) CheckBlock(p PPtr, n uint64) error {
	if p.IsNil() {
		return errors.New("nvm: nil block pointer")
	}
	if uint64(p)%blockAlign != 0 {
		return fmt.Errorf("nvm: block pointer %d is unaligned", p)
	}
	if uint64(p) < arenaStart+blockHeaderSize || uint64(p) >= h.Size() {
		return fmt.Errorf("nvm: block pointer %d outside the arena", p)
	}
	hdr := p - blockHeaderSize
	tag := h.U64(hdr)
	var size uint64
	if tag < uint64(numClasses) {
		size = sizeClasses[tag]
	} else {
		size = tag - uint64(numClasses)
	}
	if size < n || size > h.Size() || uint64(p)+size > h.Size() {
		return fmt.Errorf("nvm: block at %d holds %d bytes, need %d", p, size, n)
	}
	if st := h.U64(hdr + 8); st != blockReserved {
		return fmt.Errorf("nvm: block at %d has state %#x, want Reserved", p, st)
	}
	return nil
}
