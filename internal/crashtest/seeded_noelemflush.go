//go:build crosscheck_noelemflush

package crashtest

// Seeded bug: the stage half of Vector.Append never flushes the element
// it wrote, so the length is published over a dirty line
// (pstruct/vector_stage_seeded.go).
const (
	seededBug  = "crosscheck_noelemflush"
	seededPkg  = "./internal/pstruct"
	seededWant = `call of Publish publishes .* while its call of StageAppend at .* is not persisted`
)
