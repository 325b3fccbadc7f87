// Command perfbench is the dataspace daemon's end-to-end benchmark. It
// boots the daemon (internal/server) in process behind a loopback
// listener, sets it up for one workload, drives it with a closed-loop
// keep-alive client for a fixed time, checks every answer, and prints
// the result as one JSON object on the last line of standard output:
//
//	perfbench --workload table1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half, and
// the result carries the per-layer metrics measured by replaying each
// traced request through the layers' public functions in process (see
// replica.go). run.sh builds the binary from source and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/server"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outdir receives the full report and, for traced runs, the span
	// dump; empty writes nothing.
	outdir string
	scale  scale
}

// scale sizes the generated inputs; the self-test shrinks it.
type scale struct {
	// ispider sizes the case-study sources (its Seed is ignored).
	ispider ispider.Config
	// scanRows is the row count of the scan workload's table.
	scanRows int
	// sessions and sessionRows size the serving workload.
	sessions    int
	sessionRows int
	// round scales the length of every workload's request sequence,
	// the work of one round.
	round float64
}

// stderr receives diagnostics; the self-test silences it.
var stderr io.Writer = os.Stderr

func defaultScale() scale {
	return scale{
		ispider:     ispider.BenchConfig(),
		scanRows:    200_000,
		sessions:    64,
		sessionRows: 256,
		round:       1,
	}
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run measured: the result line's metrics plus
// the workload-specific end-to-end metrics, the machine and the daemon
// configuration. It is printed as text and written to outdir.
type report struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Trace    bool         `json:"trace"`
	Machine  machine      `json:"machine"`
	Daemon   daemonConfig `json:"daemon"`
	Clients  int          `json:"clients"`
	Samples  int          `json:"samples"`
	Checks   int          `json:"answer_checks"`
	// Extra holds metrics printed and recorded but not in the result
	// line: the workload-specific end-to-end metrics, and per-query
	// breakdowns.
	Extra map[string]metric `json:"extra"`
	// SetupRuns are the individual set-up times behind setup_s.
	SetupRuns []float64 `json:"setup_runs_s"`
	// RoundQPS are the rounds' throughputs behind qps.
	RoundQPS []float64 `json:"round_qps"`
	// RoundHeapMB are the rounds' peak live heaps behind heap_live_mb.
	RoundHeapMB []float64 `json:"round_heap_mb"`
	result
}

type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// daemonConfig records the server configuration every run uses.
type daemonConfig struct {
	PlanCacheSize   int     `json:"plan_cache_size"`
	ResultCacheSize int     `json:"result_cache_size"`
	CacheBytes      int64   `json:"cache_bytes"`
	QueryTimeoutS   float64 `json:"query_timeout_s"`
	EvalParallelism int     `json:"eval_parallelism"`
	EffectiveEval   int     `json:"effective_eval_parallelism"`
	ScanBuffer      int     `json:"scan_buffer"`
	FetchPageRows   int     `json:"fetch_page_rows"`
	MaxInflight     int     `json:"max_inflight"`
	MaxQueue        int     `json:"max_queue"`
	Breaker         bool    `json:"breaker_enabled"`
}

func describeConfig(cfg server.Config) daemonConfig {
	return daemonConfig{
		PlanCacheSize:   cfg.PlanCacheSize,
		ResultCacheSize: cfg.ResultCacheSize,
		CacheBytes:      cfg.CacheBytes,
		QueryTimeoutS:   cfg.QueryTimeout.Seconds(),
		EvalParallelism: cfg.EvalParallelism,
		EffectiveEval:   runtime.GOMAXPROCS(0),
		ScanBuffer:      cfg.ScanBuffer,
		FetchPageRows:   cfg.FetchPageRows,
		MaxInflight:     cfg.MaxInflight,
		MaxQueue:        cfg.MaxQueue,
		Breaker:         cfg.Breaker.Enabled,
	}
}

func main() {
	opts := options{scale: defaultScale()}
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated inputs and the request sequence")
	flag.Float64Var(&opts.seconds, "seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced layer decomposition and reports per-layer metrics")
	flag.StringVar(&opts.outdir, "outdir", "", "directory for the full report and span dump (empty: none)")
	flag.Parse()
	opts.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := runAll(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs one workload, or with --workload all every workload in
// turn; the combined result then names each metric workload.metric.
func runAll(opts options, w io.Writer) (result, error) {
	if opts.workload != "all" {
		rep, err := run(opts, w)
		if err != nil {
			return result{}, err
		}
		return rep.result, nil
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		opts.workload = name
		rep, err := run(opts, w)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for n, m := range rep.Metrics {
			all.Metrics[name+"."+n] = m
		}
	}
	return all, nil
}

// run executes one benchmark invocation, printing the text report to
// w, and returns the report whose result is the last output line.
func run(opts options, w io.Writer) (*report, error) {
	wl, ok := newWorkload(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	if opts.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	cfg := daemonCfg()
	rep := &report{
		Workload: opts.workload,
		Seed:     opts.seed,
		Seconds:  opts.seconds,
		Trace:    opts.trace,
		Machine:  describeMachine(),
		Daemon:   describeConfig(cfg),
		Clients:  1,
		result:   result{Metrics: map[string]metric{}},
		Extra:    map[string]metric{},
	}
	var err error
	if opts.trace {
		err = runTraced(opts, wl, rep)
	} else {
		err = runEndToEnd(opts, wl, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	printReport(w, rep)
	if opts.outdir != "" {
		if err := writeJSONFile(filepath.Join(opts.outdir, "results",
			fmt.Sprintf("%s-seed%d-trace%d.json", opts.workload, opts.seed, b2i(opts.trace))), rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// daemonCfg is server.DefaultConfig with cmd/automedd's admission
// defaults (-max-inflight 256, -max-queue 1024).
func daemonCfg() server.Config {
	cfg := server.DefaultConfig()
	cfg.MaxInflight = 256
	cfg.MaxQueue = 1024
	return cfg
}

func describeMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the processor name the kernel reports; "unknown"
// where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  clients %d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Clients)
	m := rep.Machine
	fmt.Fprintf(w, "machine  %d CPU, GOMAXPROCS %d, %s, %s %s/%s\n",
		m.NumCPU, m.GOMAXPROCS, m.CPUModel, m.GoVersion, m.GOOS, m.GOARCH)
	d := rep.Daemon
	fmt.Fprintf(w, "daemon   max-inflight %d, max-queue %d, plan cache %d, result cache %d, cache bytes %d, eval parallelism %d (effective %d), breaker %v\n",
		d.MaxInflight, d.MaxQueue, d.PlanCacheSize, d.ResultCacheSize, d.CacheBytes, d.EvalParallelism, d.EffectiveEval, d.Breaker)
	fmt.Fprintf(w, "checks   %d answers checked, %d samples, attempted %d, failed %d\n",
		rep.Checks, rep.Samples, rep.Attempted, rep.Failed)
	for _, set := range []map[string]metric{rep.Metrics, rep.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runEndToEnd measures the end-to-end metrics over untraced rounds;
// setup_s is the median of the rounds' set-up times.
func runEndToEnd(opts options, wl workload, rep *report) error {
	if err := wl.build(opts.seed, opts.scale); err != nil {
		return fmt.Errorf("building inputs: %w", err)
	}
	base := heapLive()
	ph, err := runRounds(wl, seconds(opts.seconds), nil)
	if err != nil {
		return err
	}
	reportMismatches(ph)
	rep.SetupRuns, rep.RoundQPS = ph.setups, ph.roundQPS
	for _, p := range ph.roundPeaks {
		rep.RoundHeapMB = append(rep.RoundHeapMB, (p-float64(base))/mib)
	}
	rep.Attempted, rep.Failed = ph.attempted, ph.failed
	rep.Checks, rep.Samples = ph.checks, len(ph.all)
	rep.Metrics["setup_s"] = metric{median(ph.setups), "s"}
	for name, m := range endToEnd(wl, ph, base) {
		if slices.Contains(gated, name) {
			rep.Metrics[name] = m
		} else {
			rep.Extra[name] = m
		}
	}
	return nil
}

// gated lists the end-to-end metrics every workload reports in its
// result line (BENCHMARK.json's end_to_end list).
var gated = []string{"setup_s", "qps", "p50_ms", "p90_ms", "heap_live_mb"}

// passes scales a round length, keeping at least one.
func (sc scale) passes(n int) int { return max(1, int(float64(n)*sc.round)) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
