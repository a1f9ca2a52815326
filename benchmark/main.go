// Command benchmark is the repository's benchmark: four client-observed
// workloads against a hyrisenv server in its own process, and a traced
// run that prices every layer under them. See README.md beside this file
// and BENCHMARK.json at the root of the repository.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//	benchmark --seed N [--repeat K]                           every workload, K times over
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names a metric and its unit. The lists below are the
// benchmark's whole vocabulary; BENCHMARK.json declares the same names
// (the smoke test compares the two).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"restart_ms", "ms"},
	{"space_bytes_per_row", "bytes/row"},
}

var perLayerMetrics = []metricDef{
	// Self time per op of every layer, from the ladder; they add up to
	// client.span_us.
	{"nvm.self_us", "us"}, {"storage.self_us", "us"}, {"txn.self_us", "us"}, {"exec.self_us", "us"},
	{"shard.self_us", "us"}, {"hyrisenv.self_us", "us"}, {"server.self_us", "us"}, {"client.self_us", "us"},
	{"client.span_us", "us"}, {"client.untraced_p50_us", "us"}, {"trace.overhead_pct", "%"}, {"trace.spans", "count"},
	{"client.p95_us", "us"}, {"client.p99_us", "us"}, {"client.samples", "count"},
	// Counts per op at the boundaries where the work happens.
	{"nvm.flushes_per_op", "count"}, {"nvm.fences_per_op", "count"}, {"nvm.allocs_per_op", "count"}, {"nvm.barrier_us_per_op", "us"},
	{"wire.roundtrips_per_op", "count"}, {"wire.bytes_per_op", "bytes"},
	// Single calls into a layer.
	{"nvm.persist_line_ns", "ns"}, {"nvm.alloc_ns", "ns"},
	{"pstruct.vector_append_ns", "ns"}, {"pstruct.skiplist_insert_ns", "ns"}, {"pstruct.bitpacked_scan_ns_per_row", "ns"},
	{"mvcc.visible_ns_per_row", "ns"}, {"index.lookup_ns", "ns"}, {"storage.row_fetch_ns", "ns"},
	{"exec.count_ns_per_row_par1", "ns"}, {"exec.count_ns_per_row", "ns"}, {"exec.par_speedup", "x"},
	{"exec.select_ns_per_row", "ns"}, {"exec.groupby_ns_per_row", "ns"}, {"wire.codec_ns_per_frame", "ns"},
	// Set-up and data shape.
	{"storage.merge_s", "s"}, {"storage.delta_share", "ratio"}, {"proc.rss_mb", "MB"},
	// Restart, boundary by boundary and process by process.
	{"nvm.open_ms", "ms"}, {"storage.open_table_ms", "ms"}, {"txn.recover_ms", "ms"}, {"shard.open_ms", "ms"},
	{"hyrisenv.open_ms", "ms"}, {"server.listen_ms", "ms"},
	{"proc.kill_ms", "ms"}, {"proc.spawn_ms", "ms"}, {"proc.open_ms", "ms"}, {"client.first_answer_ms", "ms"},
	{"txn.rolled_back_per_restart", "count"},
	{"restart.ms", "ms"}, {"restart.small_ms", "ms"}, {"restart.size_ratio", "x"},
	// The pessimistic-crash durability check.
	{"shadow.crash_points", "count"}, {"shadow.violations", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded beside every result: a number measured under
// an NVM latency model means nothing without the model.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Clients    int    `json:"clients"`
	PinnedCPU  string `json:"pinned_cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	WriteNS    int64  `json:"nvm_write_ns"`
	FenceNS    int64  `json:"nvm_fence_ns"`
	ReadNS     int64  `json:"nvm_read_ns"`
	DrainNS    int64  `json:"nvm_drain_ns"`
	Rows       int    `json:"rows"`
	Engine     string `json:"engine"`
}

func (r *run) environment(trace bool) environment {
	env := environment{
		Workload: r.w, Seed: r.d.seed, Seconds: int(r.seconds / time.Second), Trace: trace, Clients: 1, PinnedCPU: os.Getenv(pinnedEnv),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Commit: "unknown",
		WriteNS: model.WriteNS, FenceNS: model.FenceNS, ReadNS: model.ReadNS, DrainNS: model.DrainNS,
		Rows: r.d.rows, Engine: "mode=nvm shards=1 group_commit=false parallelism=0",
	}
	// The machine's CPUs, not the one this process is pinned to.
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		env.NumCPU = 0
		for _, line := range strings.Split(string(b), "\n") {
			switch k, v, _ := strings.Cut(line, ":"); strings.TrimSpace(k) {
			case "processor":
				env.NumCPU++
			case "model name":
				env.CPU = strings.TrimSpace(v)
			}
		}
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runWorkload runs one workload once and returns its result. A run that
// could not measure at all returns an error instead.
func runWorkload(w string, seed int64, measure time.Duration, trace bool, sz sizes, outDir string) (result, environment, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, environment{}, err
	}
	r, err := newRun(w, seed, measure, sz, outDir)
	if err != nil {
		return result{}, environment{}, err
	}
	defer r.close()
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
		err = r.traced(outDir)
	} else {
		err = r.endToEnd()
	}
	env := r.environment(trace)
	if err != nil {
		return result{}, env, fmt.Errorf("%s: %w", w, err)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return result{}, env, fmt.Errorf("%s: metric %s was not measured", w, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(r.metrics) != len(defs) {
		return result{}, env, fmt.Errorf("%s: %d metrics measured, %d declared", w, len(r.metrics), len(defs))
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %v\n", w, r.firstErr)
	}
	return res, env, nil
}

// printResult prints the environment, then every metric by name with
// its unit, and leaves both in a file beside the trace.
func printResult(res result, env environment, outDir string) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	for _, name := range names {
		fmt.Printf("%-12s %-36s %16.4f %s\n", env.Workload, name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("%-12s %-36s %16.6f ratio (%d failed of %d)\n", env.Workload, "fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	b, _ := json.MarshalIndent(struct {
		Env    environment `json:"env"`
		Result result      `json:"result"`
	}{env, res}, "", "  ")
	trace := 0
	if env.Trace {
		trace = 1
	}
	os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", env.Workload, trace)), b, 0o644) //nolint:errcheck // a convenience copy
}

// pinnedEnv marks a process that pin has already re-executed; its value
// is the CPU.
const pinnedEnv = "HYRISENV_BENCH_PINNED"

// pin confines the benchmark, and every child it will start, to one CPU:
// the first the process may run on. The sandbox's two CPUs are two
// threads of one core. Left alone, the scheduler moves client and server
// between them, and a wake-up across them costs tens of microseconds,
// sometimes: unpinned, point-read did 9k ops/s with quarter-second
// windows 25% apart; on one CPU 14k ops/s and 8%. The engine keeps the
// parallelism of the whole machine (GOMAXPROCS is handed down), so it
// runs the code it would run anywhere; its workers just share the CPU.
//
// Affinity set on a running Go process reaches only the calling thread,
// so pin sets it there and re-executes the program, which then starts
// with it on every thread.
func pin() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	cpu := -1
	for i := 0; i < int(n)*8 && cpu < 0; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("empty affinity mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", pinnedEnv, cpu), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	return syscall.Exec(exe, os.Args, env)
}

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(parentMain())
}

func parentMain() int {
	workload := flag.String("workload", "", "workload to run once (default: all of them, see -repeat)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 0, "seconds to measure (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	repeat := flag.Int("repeat", 1, "without -workload: run every workload this many times, on seeds seed, seed+1, ..., and compare")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *repeat < 1 || *seconds < 0 {
		flag.Usage()
		return 2
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: GOMAXPROCS < 2: the engine would run its scans on the serial path, which is not what the other runs measured")
		return 2
	}
	if err := pin(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: pinning to one CPU:", err)
		return 2
	}
	decl, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the root of the repository:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = decl.RunSeconds
	}
	outDir := filepath.Join(decl.Paths[0], "out")

	// Every exit path kills and reaps the children and removes the
	// scratch directories: returns do it through run.close, a signal
	// through this handler. Pdeathsig covers a kill of the parent itself.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		for _, w := range workloadNames {
			dirs, _ := filepath.Glob(filepath.Join(outDir, w+"-*"))
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}
		os.Exit(1)
	}()
	defer killChildren()

	if *workload == "" {
		return suite(decl, *seed, *seconds, *repeat, outDir)
	}
	res, env, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullSizes, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(res, env, outDir)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
