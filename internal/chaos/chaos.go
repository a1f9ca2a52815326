// Package chaos is the acked-durability harness: it drives pipelined
// mixed load against a live hyrise-nvd daemon while the fault plane
// (internal/fault) fires, SIGKILLs the daemon mid-load, verifies the
// persistent image offline (Engine.Fsck plus the acked set), restarts
// the daemon on the same address, and checks every client-observed
// outcome against what the restarted database actually contains:
//
//   - a write whose commit was acked must be visible exactly once
//     (an acked ack is a durability promise — the paper's contract);
//   - a write that failed before its commit was issued must be absent
//     (its transaction died with the connection and was rolled back);
//   - a commit whose ack was lost in flight is indeterminate: present
//     or absent is fine, present twice is not (no duplicate apply);
//   - single-slot update chains must show exactly one visible row whose
//     sequence lies between the last acked and last attempted update.
//
// The harness is deliberately mode-opinionated: it runs against ModeNVM
// because the instant-restart property is what makes ten kill/restart
// cycles finish in seconds.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrisenv"
	"hyrisenv/client"
	"hyrisenv/internal/backoff"
	"hyrisenv/internal/core"
	"hyrisenv/internal/fault"
	"hyrisenv/internal/shard"
	"hyrisenv/internal/txn"
)

// Table is the chaos workload's table: k is the unique write tag
// (insert workers use ascending non-negative keys, update slots use
// negative keys), v is the payload / update sequence number.
const Table = "chaos"

// Config parameterises a chaos run.
type Config struct {
	Dir string // daemon data directory (offline fsck reopens it between kill and restart)

	Cycles    int           // kill/restart cycles (default 3)
	CycleLoad time.Duration // load duration before each kill (default 300ms)
	Writers   int           // unique-key insert workers (default 4)
	Updaters  int           // single-slot update workers (default 2)
	Readers   int           // count/scan workers, errors tolerated (default 2)

	// NVMHeapSize must match the daemon's heap size so the offline fsck
	// reopen sees the same device (default 256 MiB).
	NVMHeapSize uint64

	// Shards must match the daemon's shard count so the offline fsck
	// reopen sees the same layout (0 or 1 = unpartitioned). With more
	// than one shard the workload's multi-row commits cross shard
	// boundaries, so kills land mid-2PC and recovery must resolve
	// prepared-but-undecided transactions from the coordinator region.
	Shards int

	// ClientFaults, when it injects anything, arms a second fault plane
	// on the client side of every pooled connection — both ends of the
	// wire misbehave. It is quiesced during verification reads.
	ClientFaults fault.Config

	ReadRetries int // client read retries (default 3)

	Logf func(format string, args ...any) // progress logging (nil = silent)
}

// Report is the outcome of a chaos run. The first block counts what the
// workload observed; the second block counts contract violations found
// by verification — all of which must be zero for Clean.
type Report struct {
	Cycles int

	Acked         int // commits acked to the client
	Failed        int // writes that failed before commit was issued
	Indeterminate int // commits whose ack was lost in flight
	UpdatesAcked  int // acked single-slot updates
	OutOfSpace    int // writes refused with ErrOutOfSpace (graceful degradation, not a violation)

	PairsAcked int // acked two-row (cross-shard candidate) commits, counted when Shards > 1

	LostAcked      int // acked writes missing after restart — durability broken
	TornPairs      int // two-row commits where one row survived and the other did not — 2PC atomicity broken
	PhantomFailed  int // failed-before-commit writes that appeared anyway
	Duplicates     int // any tag visible more than once — duplicate apply
	SlotViolations int // update slots outside [lastAcked, lastAttempted] or not exactly one row
	FsckFailures   int // offline consistency failures
	VerifyErrors   int // verification reads that never succeeded

	TotalDowntime time.Duration // sum over cycles of restart-to-first-served
	MaxDowntime   time.Duration

	ClientFaultStats fault.Stats
}

// Clean reports whether the run upheld the acked-durability contract.
// A run that never acked anything proved nothing, so it is not clean.
func (r *Report) Clean() bool {
	return r.Acked > 0 &&
		r.LostAcked == 0 && r.TornPairs == 0 && r.PhantomFailed == 0 &&
		r.Duplicates == 0 && r.SlotViolations == 0 && r.FsckFailures == 0 &&
		r.VerifyErrors == 0
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d cycles, %d acked, %d failed, %d indeterminate, %d updates acked, %d out-of-space\n",
		r.Cycles, r.Acked, r.Failed, r.Indeterminate, r.UpdatesAcked, r.OutOfSpace)
	if r.PairsAcked > 0 {
		fmt.Fprintf(&b, "pairs: %d acked two-row commits\n", r.PairsAcked)
	}
	fmt.Fprintf(&b, "violations: %d lost-acked, %d torn-pair, %d phantom, %d duplicate, %d slot, %d fsck, %d verify\n",
		r.LostAcked, r.TornPairs, r.PhantomFailed, r.Duplicates, r.SlotViolations, r.FsckFailures, r.VerifyErrors)
	fmt.Fprintf(&b, "downtime: total %v, max %v; client faults: %v",
		r.TotalDowntime.Round(time.Millisecond), r.MaxDowntime.Round(time.Millisecond), &r.ClientFaultStats)
	if r.Clean() {
		b.WriteString("\nCLEAN")
	} else {
		b.WriteString("\nVIOLATIONS FOUND")
	}
	return b.String()
}

// write classification — what the client was told about one tagged write.
const (
	stAcked  = iota // commit returned nil
	stFailed        // error before commit was issued
	stIndet         // commit returned an error
)

// slot tracks one updater's single-row sequence chain.
type slot struct {
	key           int64
	lastAcked     int64
	lastAttempted int64
}

// Run executes the chaos scenario against d. The daemon is started (and
// restarted after every kill) on the same address; cfg.Dir must be the
// directory d serves so the offline fsck inspects the surviving image.
func Run(cfg Config, d Daemon) (*Report, error) {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 3
	}
	if cfg.CycleLoad <= 0 {
		cfg.CycleLoad = 300 * time.Millisecond
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 4
	}
	if cfg.Updaters <= 0 {
		cfg.Updaters = 2
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 2
	}
	if cfg.NVMHeapSize == 0 {
		cfg.NVMHeapSize = 256 << 20
	}
	if cfg.ReadRetries == 0 {
		cfg.ReadRetries = 3
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rep := &Report{Cycles: cfg.Cycles}

	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		return rep, fmt.Errorf("first start: %w", err)
	}
	defer d.Kill() //nolint:errcheck — best-effort teardown; may already be dead

	clientPlane := fault.New(cfg.ClientFaults)
	clientPlane.Enable()
	c, err := client.Dial(addr, client.Options{
		PoolSize:       cfg.Writers + cfg.Updaters + cfg.Readers,
		RequestTimeout: 10 * time.Second,
		ReadRetries:    cfg.ReadRetries,
		ConnWrapper:    clientPlane.WrapConn,
	})
	if err != nil {
		return rep, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()

	if err := createTable(c); err != nil {
		return rep, err
	}

	// Shared write ledger: every tagged write's last known classification.
	// With Shards > 1 writers commit two keys per transaction and the
	// pairs ledger records which keys must live or die together — the
	// atomicity half of the 2PC contract.
	var mu sync.Mutex
	status := map[int64]int{}
	var pairs [][2]int64
	var nextKey atomic.Int64

	// Seed the update slots (negative keys) before any fault fires.
	slots := make([]*slot, cfg.Updaters)
	for i := range slots {
		slots[i] = &slot{key: int64(-(i + 1))}
		if err := seedSlot(c, slots[i].key); err != nil {
			return rep, fmt.Errorf("seed slot %d: %w", slots[i].key, err)
		}
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		logf("cycle %d/%d: load for %v, then SIGKILL", cycle+1, cfg.Cycles, cfg.CycleLoad)

		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for w := 0; w < cfg.Writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runWriter(ctx, c, &nextKey, &mu, status, &pairs, cfg.Shards > 1, rep)
			}()
		}
		for _, sl := range slots {
			wg.Add(1)
			go func(sl *slot) {
				defer wg.Done()
				runUpdater(ctx, c, sl, &mu, rep)
			}(sl)
		}
		for r := 0; r < cfg.Readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runReader(ctx, c)
			}()
		}

		time.Sleep(cfg.CycleLoad)
		if err := d.Kill(); err != nil {
			cancel()
			wg.Wait()
			return rep, fmt.Errorf("cycle %d kill: %w", cycle, err)
		}
		// Give in-flight requests a moment to observe the crash and be
		// classified, then stop the load for the offline window.
		time.Sleep(100 * time.Millisecond)
		cancel()
		wg.Wait()

		// Offline: the surviving image must be structurally consistent
		// before we trust anything it serves.
		if err := offlineFsck(cfg, logf); err != nil {
			rep.FsckFailures++
			logf("cycle %d: FSCK FAILED: %v", cycle+1, err)
		}

		// Restart on the same address and measure restart-to-first-served.
		restartStart := time.Now()
		if _, err := d.Start(addr); err != nil {
			return rep, fmt.Errorf("cycle %d restart: %w", cycle, err)
		}
		if err := awaitServing(c); err != nil {
			return rep, fmt.Errorf("cycle %d: daemon restarted but never served: %w", cycle, err)
		}
		downtime := time.Since(restartStart)
		rep.TotalDowntime += downtime
		if downtime > rep.MaxDowntime {
			rep.MaxDowntime = downtime
		}
		logf("cycle %d: serving again after %v", cycle+1, downtime.Round(time.Millisecond))

		// Verify the full ledger with the client plane quiet; the server
		// plane (if armed) stays live — ReadRetries absorbs it.
		clientPlane.Disable()
		verify(c, &mu, status, pairs, slots, rep, logf)
		clientPlane.Enable()
	}

	clientPlane.Disable()
	rep.ClientFaultStats = clientPlane.Stats()
	return rep, nil
}

func createTable(c *client.Client) error {
	cols := []hyrisenv.Column{
		{Name: "k", Type: hyrisenv.Int64},
		{Name: "v", Type: hyrisenv.Int64},
	}
	pol := backoff.Policy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}
	var err error
	for i := 0; i < 20; i++ {
		err = c.CreateTable(Table, cols, "k")
		if err == nil || errors.Is(err, client.ErrTableExists) {
			return nil
		}
		time.Sleep(pol.Delay(i))
	}
	return fmt.Errorf("create table: %w", err)
}

// seedSlot inserts the updater's single row (v=0), retrying until acked
// so every slot chain starts from a known committed state.
func seedSlot(c *client.Client, key int64) error {
	pol := backoff.Policy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}
	var err error
	for i := 0; i < 20; i++ {
		var n int
		if n, err = c.Count(Table, keyPred(key)); err == nil && n == 1 {
			return nil // a previous attempt's lost ack actually landed
		}
		var tx *client.Tx
		if tx, err = c.Begin(); err != nil {
			time.Sleep(pol.Delay(i))
			continue
		}
		if _, err = tx.Insert(Table, hyrisenv.Int(key), hyrisenv.Int(0)); err != nil {
			tx.Abort() //nolint:errcheck — already failing
			time.Sleep(pol.Delay(i))
			continue
		}
		if err = tx.Commit(); err == nil {
			return nil
		}
		time.Sleep(pol.Delay(i))
	}
	return err
}

func keyPred(key int64) hyrisenv.Pred {
	return hyrisenv.Pred{Col: "k", Op: hyrisenv.Eq, Val: hyrisenv.Int(key)}
}

// stSkip marks an attempt whose tag never left the client (Begin
// failed): it carries no durability information and is not recorded.
const stSkip = -1

// runWriter inserts rows with globally unique keys until ctx is done,
// classifying every attempt in the shared ledger. When pair is set
// (sharded daemon) every transaction commits two keys, so consecutive
// tags routinely hash to different shards and the commit runs the 2PC
// path; the pair is recorded so verification can check the two rows
// lived or died together. The pacing sleep keeps the ledger at a size
// verification can re-check every cycle and stops the down-window from
// spinning the CPU.
func runWriter(ctx context.Context, c *client.Client, nextKey *atomic.Int64, mu *sync.Mutex, status map[int64]int, pairs *[][2]int64, pair bool, rep *Report) {
	for ctx.Err() == nil {
		keys := []int64{nextKey.Add(1)}
		if pair {
			keys = append(keys, nextKey.Add(1))
		}
		st, oos := classifyInsert(c, keys)
		if st == stSkip {
			time.Sleep(2 * time.Millisecond) // daemon likely down; back off
			continue
		}
		mu.Lock()
		for _, key := range keys {
			status[key] = st
		}
		if pair && st != stFailed {
			*pairs = append(*pairs, [2]int64{keys[0], keys[1]})
		}
		switch st {
		case stAcked:
			rep.Acked += len(keys)
			if pair {
				rep.PairsAcked++
			}
		case stFailed:
			rep.Failed += len(keys)
		default:
			rep.Indeterminate += len(keys)
		}
		if oos {
			rep.OutOfSpace++
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// classifyInsert performs one transaction inserting every tagged key
// and reports what the client was told: acked, definitely-not-committed,
// or indeterminate. All keys share the classification — the commit is
// atomic across them (or must be: verification checks).
func classifyInsert(c *client.Client, keys []int64) (st int, outOfSpace bool) {
	tx, err := c.Begin()
	if err != nil {
		if errors.Is(err, client.ErrOutOfSpace) {
			return stFailed, true
		}
		return stSkip, false
	}
	for _, key := range keys {
		if _, err := tx.Insert(Table, hyrisenv.Int(key), hyrisenv.Int(key)); err != nil {
			tx.Abort() //nolint:errcheck — connection may be dead already
			return stFailed, errors.Is(err, client.ErrOutOfSpace)
		}
	}
	if err := tx.Commit(); err != nil {
		return stIndet, errors.Is(err, client.ErrOutOfSpace)
	}
	return stAcked, false
}

// runUpdater advances one slot's sequence chain: each attempt rewrites
// the slot row with the next sequence number. lastAttempted moves when
// a commit is issued; lastAcked moves when it is acked — the invariant
// verified after every restart is lastAcked <= visible <= lastAttempted
// with exactly one visible row.
func runUpdater(ctx context.Context, c *client.Client, sl *slot, mu *sync.Mutex, rep *Report) {
	for ctx.Err() == nil {
		tx, err := c.Begin()
		if err != nil {
			time.Sleep(2 * time.Millisecond) // daemon likely down; back off
			continue
		}
		rows, err := tx.Select(Table, keyPred(sl.key))
		if err != nil || len(rows) != 1 {
			tx.Abort() //nolint:errcheck — retry with a fresh snapshot
			continue
		}
		mu.Lock()
		seq := sl.lastAttempted + 1
		mu.Unlock()
		if _, err := tx.Update(Table, rows[0], hyrisenv.Int(sl.key), hyrisenv.Int(seq)); err != nil {
			tx.Abort() //nolint:errcheck
			continue
		}
		mu.Lock()
		sl.lastAttempted = seq // commit is about to be issued
		mu.Unlock()
		if err := tx.Commit(); err == nil {
			mu.Lock()
			sl.lastAcked = seq
			rep.UpdatesAcked++
			mu.Unlock()
		}
	}
}

// runReader keeps read pressure on the pipeline; its errors are fault
// noise by design — the harness only needs it to never deadlock.
func runReader(ctx context.Context, c *client.Client) {
	for ctx.Err() == nil {
		c.Count(Table)             //nolint:errcheck
		c.Count(Table, keyPred(1)) //nolint:errcheck
		time.Sleep(time.Millisecond)
	}
}

// offlineFsck opens the crashed image directly (the daemon is dead, so
// the harness briefly owns the directory) and runs the full structural
// consistency suite, then closes cleanly. Recovery itself — rolling
// back in-flight transactions — happens inside this Open exactly as it
// will in the daemon's restart.
func offlineFsck(cfg Config, logf func(string, ...any)) error {
	eng, err := shard.Open(shard.Config{
		Config: core.Config{
			Mode:        txn.ModeNVM,
			Dir:         cfg.Dir,
			NVMHeapSize: cfg.NVMHeapSize,
		},
		Shards: cfg.Shards,
	})
	if err != nil {
		return fmt.Errorf("offline open: %w", err)
	}
	defer eng.Close() //nolint:errcheck — read-only visit
	rs := eng.RecoveryStats()
	logf("offline: opened in %v, rolled back %d in-flight, %d 2pc decisions",
		rs.Total.Round(time.Microsecond), rs.InFlightRolledBack, rs.Decisions2PC)
	if err := eng.Fsck(); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	return nil
}

// awaitServing blocks until the daemon answers a ping, bounded by a
// deadline far above any sane NVM restart.
func awaitServing(c *client.Client) error {
	pol := backoff.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}
	deadline := time.Now().Add(30 * time.Second)
	var err error
	for i := 0; time.Now().Before(deadline); i++ {
		if err = c.Ping(); err == nil {
			return nil
		}
		time.Sleep(pol.Delay(i))
	}
	return err
}

// verify checks the whole ledger against the restarted database:
// acked ⇒ exactly once, failed ⇒ absent, indeterminate ⇒ at most once,
// pairs ⇒ both rows present or both absent (2PC atomicity), slots ⇒
// one row inside the acked..attempted window. Each finding is counted
// once and the entry collapsed to the observed truth so later cycles
// do not re-count it.
func verify(c *client.Client, mu *sync.Mutex, status map[int64]int, pairs [][2]int64, slots []*slot, rep *Report, logf func(string, ...any)) {
	mu.Lock()
	keys := make([]int64, 0, len(status))
	for k := range status {
		keys = append(keys, k)
	}
	mu.Unlock()

	present := make(map[int64]bool, len(keys))
	for _, key := range keys {
		n, err := countRetry(c, keyPred(key))
		if err != nil {
			rep.VerifyErrors++
			logf("verify key %d: %v", key, err)
			continue
		}
		present[key] = n >= 1
		mu.Lock()
		st := status[key]
		switch {
		case n > 1:
			rep.Duplicates++
			logf("VIOLATION: key %d visible %d times", key, n)
			delete(status, key)
		case st == stAcked && n == 0:
			rep.LostAcked++
			logf("VIOLATION: acked key %d lost", key)
			delete(status, key)
		case st == stFailed && n == 1:
			rep.PhantomFailed++
			logf("VIOLATION: failed key %d appeared", key)
			delete(status, key)
		case st == stFailed:
			// Verified absent once; its transaction is gone, so it can
			// never appear later. Drop it to keep re-verification of the
			// acked set (the part that matters) from drowning.
			delete(status, key)
		case st == stIndet:
			// Resolved now: present behaves like acked from here on,
			// absent like failed.
			if n == 1 {
				status[key] = stAcked
			} else {
				status[key] = stFailed
			}
		}
		mu.Unlock()
	}

	// Pair atomicity: both halves of one commit must agree. Pairs whose
	// keys left the ledger in an earlier cycle (verified absent) carry a
	// presence entry only while tracked, so they are skipped here.
	for _, pr := range pairs {
		a, aok := present[pr[0]]
		b, bok := present[pr[1]]
		if !aok || !bok {
			continue
		}
		if a != b {
			rep.TornPairs++
			logf("VIOLATION: pair (%d, %d) torn: one row committed without the other", pr[0], pr[1])
		}
	}

	for _, sl := range slots {
		rows, err := selectRetry(c, keyPred(sl.key))
		if err != nil {
			rep.VerifyErrors++
			logf("verify slot %d: %v", sl.key, err)
			continue
		}
		if len(rows) != 1 {
			rep.SlotViolations++
			logf("VIOLATION: slot %d has %d visible rows, want 1", sl.key, len(rows))
			for _, r := range rows {
				vals, err := c.Row(Table, r)
				logf("  slot %d row %d: vals=%v err=%v", sl.key, r, vals, err)
			}
			continue
		}
		vals, err := c.Row(Table, rows[0])
		if err != nil {
			rep.VerifyErrors++
			logf("verify slot %d row: %v", sl.key, err)
			continue
		}
		seq := vals[1].I
		mu.Lock()
		lo, hi := sl.lastAcked, sl.lastAttempted
		if seq < lo || seq > hi {
			rep.SlotViolations++
			logf("VIOLATION: slot %d at seq %d, outside acked window [%d, %d]", sl.key, seq, lo, hi)
		} else {
			// The surviving sequence is the committed truth: chains
			// resume from it after the restart.
			sl.lastAcked, sl.lastAttempted = seq, seq
		}
		mu.Unlock()
	}
}

func countRetry(c *client.Client, p hyrisenv.Pred) (int, error) {
	pol := backoff.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}
	var n int
	var err error
	for i := 0; i < 10; i++ {
		if n, err = c.Count(Table, p); err == nil {
			return n, nil
		}
		time.Sleep(pol.Delay(i))
	}
	return 0, err
}

func selectRetry(c *client.Client, p hyrisenv.Pred) ([]uint64, error) {
	pol := backoff.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}
	var rows []uint64
	var err error
	for i := 0; i < 10; i++ {
		if rows, err = c.Select(Table, p); err == nil {
			return rows, nil
		}
		time.Sleep(pol.Delay(i))
	}
	return nil, err
}
