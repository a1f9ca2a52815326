//go:build crosscheck_swap

package crashtest

// Seeded bug: Tx.commitCross records the commit decision before any
// participant prepared (tx_2pc_seeded.go).
const (
	seededBug  = "crosscheck_swap"
	seededPkg  = "./internal/shard"
	seededWant = `commit decision recorded before any participant prepared`
)
