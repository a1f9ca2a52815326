//go:build crosscheck_earlypublish

package crashtest

// Seeded bug: Table.AppendRow publishes a row's links and lengths before
// the fence that makes the staged lines durable
// (storage/table_append_seeded.go).
const (
	seededBug  = "crosscheck_earlypublish"
	seededPkg  = "./internal/storage"
	seededWant = `call of publishRow publishes lines staged for publication while its call of stageRow at .* is flushed but not fenced`
)
