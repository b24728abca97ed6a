// Command perfbench is taupsm's benchmark of record: three seeded,
// closed-loop workloads (hot-window, history-scan, write-mix) run from
// one client against taupsm.DB, every result checked by an oracle. An
// untraced run prints the end-to-end metrics; a traced run (-trace 1)
// prints the per-layer metrics. The last line of standard output is
// one JSON object: correct, attempted, failed and metrics; the summary
// and any failing statements go to standard error.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload hot-window --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	workload := flag.String("workload", "hot-window", "hot-window, history-scan or write-mix")
	seed := flag.Int64("seed", 1, "seed of the dataset and the statement stream")
	seconds := flag.Float64("seconds", 15, "measured duration, rounded up to whole rounds of the mix")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	// The working directory is the checkout root (see run.sh).
	const workdir = ".bench_build"
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := Run(Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Par:      runtime.NumCPU(),
		WorkDir:  workdir,
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range out.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
