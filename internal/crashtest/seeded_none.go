//go:build !crosscheck_nodecidepersist && !crosscheck_swap && !crosscheck_deadfield && !crosscheck_noelemflush && !crosscheck_earlypublish

package crashtest

// No seeded protocol bug is compiled in: the seeded test skips, and the
// regular matrices run against the correct protocol. Each crosscheck_*
// build tag swaps one file of the engine for a deliberately broken
// variant and sets these constants so the seeded test knows which
// package to analyze and which static finding must accompany the
// dynamic corruption (see seeded_*.go and `make crosscheck`).
const (
	seededBug  = ""
	seededPkg  = ""
	seededWant = ""
)
