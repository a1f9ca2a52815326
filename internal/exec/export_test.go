package exec

import (
	"context"

	"hyrisenv/internal/storage"
	"hyrisenv/internal/txn"
)

// BlockRows lets tests size tables around the kernel's block.
const BlockRows = blockRows

// ScanOn runs the scans behind Select and Count and returns, with their
// results, the partition view they read: the one generation on which a
// row-at-a-time oracle must agree with them, whatever a concurrent merge
// publishes meanwhile.
func (e *Executor) ScanOn(ctx context.Context, tx *txn.Txn, tbl *storage.Table, preds ...Pred) (rows []uint64, count int, v storage.View, err error) {
	s := newTableScan(tx, tbl, preds)
	if rows, err = e.selectScan(ctx, s); err != nil {
		return nil, 0, s.v, err
	}
	count, err = e.countScan(ctx, s)
	return rows, count, s.v, err
}
