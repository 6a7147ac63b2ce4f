// Command bench is the repository's one layered benchmark: five
// workloads, from divlaws.Stmt.Query and a divserve request down to the
// hash kernel, every result checked against an oracle. See README.md
// for the workloads and the metrics.
//
//	bash bench/run.sh -workload all -seed 1      # every metric of every workload
//	bash bench/run.sh -workload embed_small -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -compare A.json B.json
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
	"strings"
	"syscall"
)

const outDir = "out"

func main() {
	var (
		cfg     config
		trace   int
		compare bool
	)
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the datasets are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure for")
	flag.IntVar(&cfg.rounds, "rounds", 0, "measure this many rounds per client instead of -seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: also run the traced pass and report the per-layer metrics")
	flag.Float64Var(&cfg.size, "size", 1, "dataset size as a share of the workload's own; below 1 for smoke tests only")
	flag.BoolVar(&compare, "compare", false, "compare results files: -compare A.json B.json, either a comma-separated list of repeated runs")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files, or two comma-separated lists of them")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case cfg.workload == "all":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics; the
// last line of standard output is the result as one JSON object.
func runOne(cfg config) error {
	// The default configuration is what is measured.
	for _, v := range []string{"DIVLAWS_FORCE_BATCH", "DIVLAWS_FORCE_SPILL"} {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set; unset it to measure the default configuration", v)
		}
	}
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Spill files go under out/, and go away with the run. They measure
	// the sandbox's file system, not a device.
	tmp, err := os.MkdirTemp(outDir, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		os.RemoveAll(tmp)
		os.Exit(1)
	}()
	if tmp, err = filepath.Abs(tmp); err != nil {
		return err
	}
	os.Setenv("TMPDIR", tmp)

	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	res.meta.Commit = commit()

	defs, endToEnd := endToEndMetrics, true
	if cfg.trace {
		defs, endToEnd = perLayerMetrics, false
		if err := writeJSON(filepath.Join(outDir, "trace-"+cfg.workload+".json"), res.trace); err != nil {
			return err
		}
	}
	file := resultsFile{Meta: res.meta}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		s, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		file.Results = append(file.Results, row{
			Workload: cfg.workload, Layer: d.layer(endToEnd), Metric: d.Name, Unit: d.Unit,
			Value: s.value, Samples: s.n, P25: s.p25, P75: s.p75,
		})
		last.Metrics[d.Name] = value{s.value, d.Unit}
		fmt.Printf("%-14s %-34s %14.4f %-6s n=%-4d p25=%.4f p75=%.4f\n", cfg.workload, d.Name, s.value, d.Unit, s.n, s.p25, s.p75)
	}
	fmt.Printf("%-14s operations attempted=%d failed=%d rounds=%d\n", cfg.workload, res.attempted, res.failed, res.meta.Rounds)
	name := fmt.Sprintf("results-%s-trace%d.json", cfg.workload, btoi(cfg.trace))
	if err := writeJSON(filepath.Join(outDir, name), file); err != nil {
		return err
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", cfg.workload, res.failed, res.attempted)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is the checkout's commit when it is a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload untraced and then traced, each run in a
// process of its own so that peak memory and collector state do not
// leak from one to the next, and gathers out/results.json.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all resultsFile
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-rounds", fmt.Sprint(cfg.rounds), "-size", fmt.Sprint(cfg.size), "-trace", fmt.Sprint(trace),
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w, trace, err)
			}
			f, err := readResults(filepath.Join(outDir, fmt.Sprintf("results-%s-trace%d.json", w, trace)))
			if err != nil {
				return err
			}
			all.Meta = f.Meta
			all.Results = append(all.Results, f.Results...)
		}
	}
	all.Meta.Rounds = 0 // differs by workload
	return writeJSON(filepath.Join(outDir, "results.json"), all)
}
