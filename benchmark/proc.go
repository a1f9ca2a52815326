package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hyrisenv"
	"hyrisenv/client"
)

// The benchmark is one binary playing two parts. The parent generates
// load and verifies; for everything the engine does it re-executes itself
// as a child that uses only the public API (hyrisenv.Open, DB.Serve). The
// child's part is chosen by childEnv, which carries a JSON childConfig.
const childEnv = "HYRISENV_BENCH_CHILD"

// model is the NVM latency model every workload runs under: the
// ADR-class shape of the paper's emulator (a price per flushed line and
// per fence, none for reads or drains). Datasets are loaded under the
// zero model and reopened under this one.
var model = hyrisenv.NVMLatency{WriteNS: 200, FenceNS: 500}

type childConfig struct {
	Role    string // load, serve or check
	Dir     string
	Addr    string // serve: listen address
	Seed    int64  // load
	Rows    int    // load
	Updates bool   // load: apply the scan workload's set-up updates
	Out     string // load and serve: file the child reports into
}

// loadReport is what the load child leaves behind.
type loadReport struct {
	MergeS    float64
	BytesUsed uint64
}

// serveReport is what the serve child leaves behind once it listens. The
// times are wall-clock nanoseconds, comparable with the parent's.
type serveReport struct {
	MainNS     int64
	OpenedNS   int64
	ListenNS   int64
	RolledBack int
}

func engineConfig(dir string, lat hyrisenv.NVMLatency) hyrisenv.Config {
	// hyrise-nvd's defaults: one shard, no group commit, one scan worker
	// per core.
	return hyrisenv.Config{Mode: hyrisenv.NVM, Dir: dir, NVMLatency: lat}
}

// childMain runs the child's part and returns its exit code.
func childMain(raw string) int {
	started := time.Now()
	var cfg childConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad config:", err)
		return 2
	}
	var err error
	switch cfg.Role {
	case "load":
		err = childLoad(cfg)
	case "serve":
		err = childServe(cfg, started)
	case "check":
		err = childCheck(cfg)
	default:
		err = fmt.Errorf("unknown role %q", cfg.Role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s: %v\n", cfg.Role, err)
		return 1
	}
	return 0
}

func writeReport(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	// Rename, so the parent never reads half a report.
	if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

func readReport(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// childLoad creates the database, loads the generated rows, merges them
// into main and closes.
func childLoad(cfg childConfig) error {
	db, err := hyrisenv.Open(engineConfig(cfg.Dir, hyrisenv.NVMLatency{}))
	if err != nil {
		return err
	}
	tbl, err := db.CreateTable(tableName, schema, "id")
	if err != nil {
		return err
	}
	d := dataset{seed: cfg.Seed, rows: cfg.Rows}
	var rep loadReport
	const batch = 1000
	for i := 0; i < d.rows; i += batch {
		tx := db.Begin()
		for j := i; j < i+batch && j < d.rows; j++ {
			if _, err := tx.Insert(tbl, d.row(int64(j)).values()...); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := db.Merge(tableName); err != nil {
		return err
	}
	rep.MergeS = time.Since(t0).Seconds()
	if cfg.Updates {
		tx := db.Begin()
		for _, u := range d.scanUpdates() {
			rids, err := tx.SelectContext(bg, tbl, pred{Col: "id", Op: hyrisenv.Eq, Val: hyrisenv.Int(u.id)})
			if err != nil || len(rids) != 1 {
				return fmt.Errorf("update of id %d: %d rows, %v", u.id, len(rids), err)
			}
			r := d.row(u.id)
			r.region, r.cents = u.region, u.cents
			if _, err := tx.Update(tbl, rids[0], r.values()...); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	rep.BytesUsed = db.NVMStats().BytesUsed
	if err := db.Close(); err != nil {
		return err
	}
	return writeReport(cfg.Out, rep)
}

// childServe opens the database under the latency model and serves it
// until it is killed. It never shuts down cleanly: every stop is a crash.
func childServe(cfg childConfig, started time.Time) error {
	db, err := hyrisenv.Open(engineConfig(cfg.Dir, model))
	if err != nil {
		return err
	}
	opened := time.Now()
	if _, err := db.Serve(cfg.Addr, hyrisenv.ServerConfig{}); err != nil {
		return err
	}
	rep := serveReport{
		MainNS:     started.UnixNano(),
		OpenedNS:   opened.UnixNano(),
		ListenNS:   time.Now().UnixNano(),
		RolledBack: db.RecoveryStats().InFlightRolledBack,
	}
	if err := writeReport(cfg.Out, rep); err != nil {
		return err
	}
	select {}
}

// childCheck reopens the database and runs the structural checks that
// are not on the wire.
func childCheck(cfg childConfig) error {
	db, err := hyrisenv.Open(engineConfig(cfg.Dir, hyrisenv.NVMLatency{}))
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Check(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if err := db.Sharded().Fsck(); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	return nil
}

// --- the parent's side ---

// children tracks every live child so that each exit path can kill and
// reap them. Pdeathsig covers the one path that cannot: the parent
// itself being killed.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.live {
		cmd.Process.Kill() //nolint:errcheck // it may have exited already
		cmd.Wait()         //nolint:errcheck // killed on purpose
	}
	children.live = nil
}

// starter is the one thread every child is started from. Pdeathsig is
// tied to the thread that forked, not to the process: were that thread
// to exit, the child would be killed. So a goroutine locks itself to a
// thread for good and does all the starting; the goroutines that
// generate load stay unlocked, because a locked goroutine pays a thread
// hand-off for every network wake-up.
var starter struct {
	once sync.Once
	cmds chan *exec.Cmd
	errs chan error
}

func startOnStarter(cmd *exec.Cmd) error {
	starter.once.Do(func() {
		starter.cmds, starter.errs = make(chan *exec.Cmd), make(chan error)
		go func() {
			runtime.LockOSThread()
			for cmd := range starter.cmds {
				starter.errs <- cmd.Start()
			}
		}()
	})
	starter.cmds <- cmd
	return <-starter.errs
}

// spawn starts a child. Its output goes to a file, never a pipe: an
// orphan holding a pipe would keep whoever reads the parent's output
// waiting.
func spawn(cfg childConfig, logPath string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOnStarter(cmd); err != nil {
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*exec.Cmd]bool{}
	}
	children.live[cmd] = true
	children.Unlock()
	return cmd, nil
}

func reap(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.Lock()
	delete(children.live, cmd)
	children.Unlock()
	return err
}

// runChild runs a child to completion.
func runChild(cfg childConfig, logPath string) error {
	cmd, err := spawn(cfg, logPath)
	if err != nil {
		return err
	}
	if err := reap(cmd); err != nil {
		tail, _ := os.ReadFile(logPath)
		return fmt.Errorf("child %s: %w: %s", cfg.Role, err, lastLine(tail))
	}
	return nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// server is the serving child of one database directory, restarted on
// the same address for the whole workload so that the pooled client
// redials where it always dialed.
type server struct {
	dir, addr, log, report string
	cmd                    *exec.Cmd
	spawned                time.Time // just before the current child was started
}

func newServer(dir, work string) (*server, error) {
	// Pick the port once: bind an ephemeral one, note it, release it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	name := filepath.Base(dir)
	return &server{dir: dir, addr: addr, log: filepath.Join(work, name+".log"), report: filepath.Join(work, name+".serve.json")}, nil
}

func (s *server) start() error {
	os.Remove(s.report)
	s.spawned = time.Now()
	cmd, err := spawn(childConfig{Role: "serve", Dir: s.dir, Addr: s.addr, Out: s.report}, s.log)
	if err != nil {
		return err
	}
	s.cmd = cmd
	return nil
}

// kill crashes the child (SIGKILL: no drain, no close) and reaps it.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	reap(s.cmd)          //nolint:errcheck // killed on purpose
	s.cmd = nil
}

// exited reports whether the child died on its own, with the reason. An
// unreaped child is a zombie, which /proc shows and signal 0 does not.
func (s *server) exited() error {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err == nil && !strings.Contains(string(stat), ") Z ") {
		return nil
	}
	tail, _ := os.ReadFile(s.log)
	return fmt.Errorf("serving child exited: %s", lastLine(tail))
}

// rssMB reads the child's resident set from /proc.
func (s *server) rssMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// probeKey is the id every first-answer probe asks for. The probe is
// Select(id = probeKey), which goes through the index: Count(id = k)
// has no index path and scans the whole table, which would time the
// scan kernel, not the restart.
const probeKey = 0

// awaitAnswer polls until the server answers the probe correctly and
// returns the time of that answer. A refused connection is retried; a
// wrong answer is an error. The client must not retry on its own, so
// that the polling interval is this loop's alone.
func awaitAnswer(cl *client.Client, s *server) (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		rids, err := cl.Select(tableName, idEq(probeKey))
		now := time.Now()
		if err == nil {
			if len(rids) != 1 {
				return now, wrongf("first answer after start: %d rows with id %d, want 1", len(rids), probeKey)
			}
			return now, nil
		}
		if xerr := s.exited(); xerr != nil {
			return now, xerr
		}
		if now.After(deadline) {
			return now, fmt.Errorf("no answer within 60 s of start: %w", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// clientOptions is how every client of the benchmark connects: one
// connection for the one load generator; retries and health pings off,
// so that every request the benchmark counts is one it sent.
func clientOptions(wrap func(net.Conn) net.Conn) client.Options {
	return client.Options{PoolSize: 1, ReadRetries: -1, HealthCheckAfter: -1, ConnWrapper: wrap}
}

// dial connects a client to the server, waiting for it to come up.
func dial(s *server, wrap func(net.Conn) net.Conn) (*client.Client, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		cl, err := client.Dial(s.addr, clientOptions(wrap))
		if err == nil {
			return cl, nil
		}
		if xerr := s.exited(); xerr != nil {
			return nil, xerr
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", s.addr, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
