//go:build crosscheck_deadfield

package crashtest

// Seeded bug: Coordinator.recover never reads the slot's cid word back,
// so every recovered decision carries cid 0 (coord_recover_seeded.go).
const (
	seededBug  = "crosscheck_deadfield"
	seededPkg  = "./internal/shard"
	seededWant = `durable field keyed by coSlotCID is written on the commit path`
)
