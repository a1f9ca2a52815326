//go:build crosscheck_nodecidepersist

package crashtest

// Seeded bug: Coordinator.Decide stores the gtid word that publishes
// the commit decision but never persists it (coord_decide_seeded.go).
const (
	seededBug  = "crosscheck_nodecidepersist"
	seededPkg  = "./internal/shard"
	seededWant = `decision word stored but never persisted before the success return`
)
