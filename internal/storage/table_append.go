//go:build !crosscheck_earlypublish

package storage

// appendRowNVM is the two-fence schedule of AppendRowLogged: stage,
// fence, publish, fence. It is a file of its own so that `make
// crosscheck` can swap in the seeded-bug variant
// (table_append_seeded.go) by build tag.
func (t *Table) appendRowNVM(ps *partitions, vals []Value, owner, row uint64, log RowLog) error {
	if err := t.stageRow(ps, vals, owner, row, log); err != nil {
		unstageRow(ps, log)
		return err
	}
	t.h.Fence()
	publishRow(ps, log)
	t.h.Fence()
	settleRow(ps)
	return nil
}
