package exec

import (
	"bytes"
	"math/bits"
	"slices"

	"hyrisenv/internal/mvcc"
	"hyrisenv/internal/pstruct"
	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// blockRows is the number of rows the scan kernel filters at a time
// inside a morsel: small enough that a block's bitmap and the value IDs
// and aggregate inputs an operator decodes for it (20 KiB in all) stay in
// the L1 cache from one pass to the next, large enough that the per-block
// calls into mvcc and storage vanish against the rows. It is the block
// mvcc.Store keeps a visibility summary for, and it divides MorselRows, so
// every block of the main partition but the last is a whole, aligned one.
const (
	blockRows  = mvcc.SummaryRows
	blockWords = blockRows / 64
)

// tableScan is one operator's pass over one table: the partition view,
// the row bound and the snapshot captured once, and every predicate
// resolved once. It is immutable while workers scan, and shared by them.
type tableScan struct {
	v        storage.View
	mainRows uint64
	rows     uint64 // main + delta, the bound every worker scans to
	snapCID  uint64
	selfTID  uint64
	dead     []uint64 // the transaction's own invalidations, ascending
	preds    []colPred
}

// colPred is a predicate bound to one column of the view, as the test
// both partitions run 64 rows at a time: x-lo < span, flipped when neg.
// On the main partition the sorted dictionary turns every operator into
// one value-ID interval or its complement, and x is the value ID — a test
// the column runs on its bit planes. The delta dictionary is unsorted.
// There Eq and Ne take x to be the value ID and the interval to be the
// one ID the dictionary index returns for the key, or none; the order
// operators take x to be the value ID's word (pstruct.KeyWord, from the
// column's KeyWords) and the interval to be the words below, or up to,
// the key's. For Int64 and Float64 a word is the key. For String a row
// whose word ties with the key's compares its whole key instead. The
// delta half is bound after the row bound, so it covers every value ID a
// scanned row can hold: the dictionary index and length both grow before
// the attribute vector publishes a row that uses a new ID.
type colPred struct {
	main     storage.MainColumn
	delta    storage.DeltaColumn
	op       Op
	key      []byte
	lo, span uint32 // the main partition's interval
	neg      bool

	dlo, dspan uint64 // the delta's interval
	dneg       bool
	words      []uint64 // x = words[value ID]; nil: x = value ID
	ties       bool     // a row whose word is keyWord compares its whole key
	keyWord    uint64
}

// newTableScan captures the view of tbl and binds preds to it.
func newTableScan(tx *txn.Txn, tbl *storage.Table, preds []Pred) *tableScan {
	tx.PinEpoch(tbl)
	v := tbl.View()
	s := &tableScan{
		v:        v,
		mainRows: v.MainRows(),
		snapCID:  tx.SnapshotCID(),
		selfTID:  tx.TID(),
		dead:     tx.InvalidatedIn(tbl),
		preds:    make([]colPred, len(preds)),
	}
	s.rows = s.mainRows + v.DeltaRows()
	for i, p := range preds {
		s.preds[i] = bindPred(v, p)
		if s.rows > s.mainRows {
			s.preds[i].bindDelta()
		}
	}
	return s
}

func bindPred(v storage.View, p Pred) colPred {
	b := colPred{main: v.MainColumnAt(p.Col), delta: v.DeltaColumnAt(p.Col), op: p.Op, key: p.Val.EncodeKey(nil)}
	// [eq, above) are the main IDs whose key equals the predicate's: one
	// ID or none. IDs below eq hold smaller keys, IDs from above on larger.
	first, _ := b.main.LookupRange(b.key, b.key)
	eq, above := uint32(first), uint32(first)
	if first < b.main.DictLen() && bytes.Equal(b.main.DictKey(first), b.key) {
		above++
	}
	switch p.Op {
	case Eq:
		b.lo, b.span = eq, above-eq
	case Ne:
		b.lo, b.span, b.neg = eq, above-eq, true
	case Lt:
		b.span = eq
	case Le:
		b.span = above
	case Gt:
		b.span, b.neg = above, true
	case Ge:
		b.span, b.neg = eq, true
	}
	return b
}

// bindDelta binds the predicate to the delta column; see colPred.
func (p *colPred) bindDelta() {
	switch p.op {
	case Eq, Ne:
		if id, ok := p.delta.LookupValueID(p.key); ok {
			p.dlo, p.dspan = id, 1
		}
		p.dneg = p.op == Ne
	case Lt, Le, Gt, Ge:
		p.words = p.delta.KeyWords(p.delta.DictLen())
		p.keyWord = pstruct.KeyWord(p.key)
		p.ties = p.delta.Type() == storage.TypeString
		// Lt and Ge test the words below the key's, Le and Gt the words
		// up to it.
		p.dspan, p.dneg = p.keyWord, p.op == Gt || p.op == Ge
		if p.op == Le || p.op == Gt {
			if p.dspan++; p.dspan == 0 { // the largest word: every word is up to it
				p.dneg = !p.dneg
			}
		}
	}
	// Any other operator keeps the empty interval, which matches nothing.
}

// scanWorker is the scratch one worker filters the blocks of one
// tableScan in. After forEachBlock hands a block to its caller, bits is
// the block's result, and ids, which held the value IDs a delta block's
// predicates tested, is the caller's, for the value IDs of the block it
// reads.
type scanWorker struct {
	bits [blockWords]uint64 // bit i: row first+i is visible and passes every predicate
	ids  [blockRows]uint32
}

// bitmap returns the words of bits that cover a block of n rows.
func (w *scanWorker) bitmap(n int) []uint64 { return w.bits[:(n+63)/64] }

// scanWorkers holds the scratch of each worker of one operator, made at
// first use. Slot i is only ever touched by worker i.
type scanWorkers []*scanWorker

func (ws scanWorkers) get(worker int) *scanWorker {
	if ws[worker] == nil {
		ws[worker] = new(scanWorker)
	}
	return ws[worker]
}

// forEachBlock filters the rows [lo, hi) a block at a time and calls fn
// for every block in which a row survives: first is the table row ID of
// bit 0 of w.bits, n the number of rows in the block. No block straddles
// the main/delta boundary, so first < s.mainRows tells fn which partition
// it is in, and blocks end on multiples of blockRows of their partition's
// own row numbers — where its visibility summaries lie — so only the
// blocks at the ends of [lo, hi) and of a partition can be short.
func (s *tableScan) forEachBlock(w *scanWorker, lo, hi uint64, fn func(first uint64, n int)) {
	for lo < hi {
		base, bound := uint64(0), min(hi, s.mainRows)
		if lo >= s.mainRows {
			base, bound = s.mainRows, hi
		}
		end := min(lo+blockRows-(lo-base)%blockRows, bound)
		n := int(end - lo)
		if s.filterBlock(w, lo, n) {
			fn(lo, n)
		}
		lo = end
	}
}

// filterBlock computes w.bits for the n rows from first on: MVCC
// visibility, minus the transaction's own invalidations, ANDed with one
// predicate after another until none or no row is left. It reports
// whether a row is left.
func (s *tableScan) filterBlock(w *scanWorker, first uint64, n int) bool {
	bm := w.bitmap(n)
	inMain := first < s.mainRows
	if inMain {
		s.v.MainMVCC().VisibleBits(first, first+uint64(n), s.snapCID, s.selfTID, bm)
	} else {
		s.v.DeltaMVCC().VisibleBits(first-s.mainRows, first-s.mainRows+uint64(n), s.snapCID, s.selfTID, bm)
	}
	if len(s.dead) > 0 {
		i, _ := slices.BinarySearch(s.dead, first)
		for ; i < len(s.dead) && s.dead[i] < first+uint64(n); i++ {
			bit := s.dead[i] - first
			bm[bit/64] &^= 1 << (bit % 64)
		}
	}
	for pi := range s.preds {
		if allZero(bm) {
			return false
		}
		p := &s.preds[pi]
		if inMain {
			p.main.FilterIDs(first, first+uint64(n), p.lo, p.span, p.neg, bm)
		} else {
			p.delta.LoadIDs(first-s.mainRows, w.ids[:n])
			p.filterDelta(w.ids[:n], bm)
		}
	}
	return !allZero(bm)
}

func allZero(bm []uint64) bool {
	var or uint64
	for _, w := range bm {
		or |= w
	}
	return or == 0
}

// ones returns the number of set bits of bm. The sum is a local of its
// own, not the caller's captured counter, which would be added to in
// memory once per word.
func ones(bm []uint64) int {
	n := 0
	for _, w := range bm {
		n += bits.OnesCount64(w)
	}
	return n
}

// filterDelta ANDs the predicate into bm for the delta rows whose value
// IDs are ids: 64 interval tests without a branch for every word of bm
// that still holds a row, then a whole-key comparison for each String
// row left in it whose word ties with the key's. An interval that holds
// no value, with no String row to tie, keeps every row or none, and
// tests none.
func (p *colPred) filterDelta(ids []uint32, bm []uint64) {
	lo, span, kw := p.dlo, p.dspan, p.keyWord
	var flip uint64
	if p.dneg {
		flip = ^uint64(0)
	}
	if span == 0 && !p.ties {
		for w := range bm {
			bm[w] &= flip
		}
		return
	}
	for w, live := range bm {
		if live == 0 {
			continue
		}
		blk := ids[w*64 : min(w*64+64, len(ids))]
		var in, tie uint64
		switch {
		case p.words == nil:
			for i, x := range blk {
				_, b := bits.Sub64(uint64(x)-lo, span, 0) // b = 1 when x-lo < span
				in |= b << i
			}
		case !p.ties:
			for i, id := range blk {
				_, b := bits.Sub64(p.words[id]-lo, span, 0)
				in |= b << i
			}
		default:
			for i, id := range blk {
				x := p.words[id]
				_, b := bits.Sub64(x-lo, span, 0)
				_, t := bits.Sub64(x^kw, 1, 0) // t = 1 when x == kw
				in |= b << i
				tie |= t << i
			}
		}
		keep := in ^ flip
		for t := tie & live; t != 0; t &= t - 1 {
			i := bits.TrailingZeros64(t)
			keep &^= 1 << i
			if p.op.matches(bytes.Compare(p.delta.DictKey(uint64(blk[i])), p.key)) {
				keep |= 1 << i
			}
		}
		bm[w] = live & keep
	}
}

// forEachRow calls fn with the index of every set bit of bm, ascending.
func forEachRow(bm []uint64, fn func(i int)) {
	for w, word := range bm {
		for ; word != 0; word &= word - 1 {
			fn(w*64 + bits.TrailingZeros64(word))
		}
	}
}
