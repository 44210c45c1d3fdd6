// Command perfbench is the repository benchmark. It runs one named
// workload closed-loop in this process, checks every output, and prints
// as its last line one JSON object with the metrics BENCHMARK.json names:
// the end-to-end metrics untraced (--trace 0), or the per-layer metrics
// from a separate traced run (--trace 1), which also writes the spans as
// Chrome trace JSON to .bench_build/trace/<workload>.json. The line
// before it records the seed, the host and the single-threaded
// baselines. Build and run it from the repository root with
// perfbench/run.sh.
//
// Every layer is timed from outside, by wrapping calls into its public
// functions: kernels, transport connections, and the run calls of spi,
// particle and orch. Only wall-clock time is reported.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each name to its constructor. Each stresses a different
// layer; see BENCHMARK.json for why each was chosen.
var workloads = map[string]func(seed uint64) (instance, func(), error){
	"lpc-n256-tcp":   func(seed uint64) (instance, func(), error) { return newLPC(256, "tcp", seed) },
	"lpc-n8192-shm":  func(seed uint64) (instance, func(), error) { return newLPC(8192, "shm", seed) },
	"particle-chan":  newParticle,
	"orch-pool2-tcp": newOrch,
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"iters_per_s", "1/s"},
	{"iter_latency_p50_us", "us"},
	{"iter_latency_p99_us", "us"},
	{"setup_s", "s"},
	{"cpu_us_per_iter", "us"},
	{"alloc_bytes_per_iter", "B"},
	{"max_rss_mb", "MB"},
}

// perLayer lists every per-layer metric. A workload reports 0 for a
// layer it does not exercise (the transport on particle-chan) or does not
// expose (SPI counters inside orch workers).
var perLayer = []metricDef{
	{"transport.writes_per_iter", "count"},
	{"transport.write_bytes_per_iter", "B"},
	{"transport.write_us_per_iter", "us"},
	{"transport.reads_per_iter", "count"},
	{"transport.read_wait_us_per_iter", "us"},
	{"transport.conns_per_epoch", "count"},
	{"transport.connect_us", "us"},
	{"spi.msgs_per_iter", "count"},
	{"spi.wire_bytes_per_iter", "B"},
	{"spi.acks_per_iter", "count"},
	{"spi.acks_piggybacked_per_iter", "count"},
	{"spi.credit_waits_per_iter", "count"},
	{"spi.max_queued", "count"},
	{"spi.self_us_per_iter", "us"},
	{"lpc.kernel_us_per_iter", "us"},
	{"lpc.replica_busy_skew", "ratio"},
	{"lpc.serial_iter_us", "us"},
	{"particle.step_busy_us", "us"},
	{"particle.serial_step_us", "us"},
	{"orch.epoch_us_p50", "us"},
	{"orch.epoch_us_p99", "us"},
	{"orch.commit_ratio", "ratio"},
	{"orch.migrations_per_epoch", "count"},
	{"orch.static_iters_per_s", "1/s"},
	{"dataflow.plan_us", "us"},
	{"trace.iters_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

// hardLimit ends a run that hangs; the benchmark must finish well inside
// 180 seconds.
const hardLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run instead of the end-to-end metrics")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %s\n", *name, hardLimit)
		os.Exit(3)
	})
	// Go code runs on one OS thread. With one per CPU, the rate of every
	// workload was set by cross-CPU wake-ups, whose cost on a 2-vCPU
	// virtual machine follows the host's load. Interleaved 10 s runs on
	// one thread against two: lpc-n256-tcp 13.5k-14.8k iterations/s
	// against 11.2k-12.9k, orch-pool2-tcp 35k-43k against 17k-30k,
	// lpc-n8192-shm 1958-2311 (p99 0.8-1.1 ms) against 954-1819 (p99
	// 1.6-9.0 ms). The in-process nodes, replicas and PEs still run as
	// separate goroutines, so every layer does the same work.
	runtime.GOMAXPROCS(1)

	inst, cleanup, err := mk(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := measure(inst, time.Duration(*seconds)*time.Second, *trace == 1)
	cleanup()

	host := hostContext()
	correct := res.failed == 0 && res.attempted > 0
	defs, values := endToEnd, res.e2e
	if *trace == 1 {
		defs, values = perLayer, res.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is not finite\n", d.name)
			v, correct = 0, false
		}
		if *trace == 0 && v <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured %v\n", d.name, v)
			correct = false
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}

	ctx := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": host, "failed_ratio": float64(res.failed) / float64(max(res.attempted, 1)),
	}
	for k, v := range res.context {
		ctx[k] = v
	}
	if res.tr != nil {
		path := filepath.Join(".bench_build", "trace", *name+".json")
		if err := res.tr.write(path, map[string]any{"workload": *name, "seed": *seed, "host": host}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
			correct = false
		}
		ctx["trace_file"] = path
	}

	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostContext identifies the machine, so results from different hosts
// are never compared.
func hostContext() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}
