// Command gcbench is GroupCast's benchmark. It drives the live node fleet
// (in-process mem fabric or TCP loopback) or the simulator layers through
// their public APIs on one of three workloads, checks every output with an
// oracle, and prints the metrics named in BENCHMARK.json as the last line of
// standard output:
//
//	gcbench --workload fanout-mem --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the same workload with every node's tracer feeding a sink in this
// program and every transport wrapped in a timing decorator, and prints the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric under its declared unit.
func (r *result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("gcbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("gcbench: metric %s is %v", name, v))
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds float64, traced bool) (*result, []string, error){
	"fanout-mem":    liveRunner(fanoutMem),
	"reliable-tcp":  liveRunner(reliableTCP),
	"paper-figures": runFigures,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	traced := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "gcbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	res, violations, err := runner(*seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "gcbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if *traced == 1 {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := res.Metrics[d.name]; !ok {
			fmt.Fprintf(stderr, "gcbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
	}
	for _, v := range violations {
		fmt.Fprintln(stderr, "violation:", v)
	}
	traffic := "in process"
	if *name == "reliable-tcp" {
		traffic = "TCP on loopback"
	}
	fmt.Fprintf(stdout, "# gcbench workload=%s seed=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s traffic=%q\n",
		*name, *seed, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), traffic)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "gcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
