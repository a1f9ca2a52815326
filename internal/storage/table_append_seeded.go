//go:build crosscheck_earlypublish

package storage

// appendRowNVM, seeded bug: the row's links and lengths are published
// before the fence that makes what they name durable, so a crash can
// keep a length word and lose the slot under it. publishcheck must flag
// the publication and the shadow crash sweep must find the damage (see
// internal/crashtest/seeded_test.go).
func (t *Table) appendRowNVM(ps *partitions, vals []Value, owner, row uint64, log RowLog) error {
	if err := t.stageRow(ps, vals, owner, row, log); err != nil {
		unstageRow(ps, log)
		return err
	}
	publishRow(ps, log)
	t.h.Fence()
	t.h.Fence()
	return nil
}
