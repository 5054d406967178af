// Command benchmark is the repository's one performance harness: it builds
// cmd/csced, runs it as a real subprocess, drives it over HTTP with
// closed-loop clients, checks every reply against an in-process oracle,
// and prints the end-to-end metrics; with --trace 1 it replays the same
// request sequences in process with a span around every layer call and
// prints the per-layer metrics. See README.md for the glossary.
//
// The driver's contract (BENCHMARK.json):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints one JSON object as the last line of standard output. Without
// --workload every workload runs in turn, each with its own result line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const defaultSeed = 1

// wallCap bounds one workload's run, set-up and oracle included. When it
// fires the daemon is killed, unfinished operations count as failed, and
// the metrics are still printed.
const wallCap = 120 * time.Second

func main() {
	// An interrupted or terminated harness must not leave a csced behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		running.killAll()
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		os.Exit(1)
	}()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (default: all five in turn)")
		seed     = fs.Int64("seed", defaultSeed, "input seed: same seed, same pools and request streams")
		seconds  = fs.Float64("seconds", 20, "measured seconds per run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics against a real csced; 1: per-layer metrics from the in-process span replay")
		root     = fs.String("root", "", "checkout root (default: nearest parent holding cmd/csced)")
		pin      = fs.Bool("pin", false, "regenerate inputs.lock and kernel-tasks.json for -seed instead of checking them")
		smoke    = fs.Bool("smoke", false, "1/50-length pass of every workload against an in-process server (harness self-check)")
		repeat   = fs.Int("repeat", 1, "run the selection this many times and print the spread of every end-to-end metric")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 || *seconds > 60 {
		return fmt.Errorf("-seconds %v out of range (0, 60]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	rootDir, err := findRoot(*root)
	if err != nil {
		return err
	}
	benchDir := filepath.Join(rootDir, "benchmark")

	selected := workloads()
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			var names []string
			for _, w := range workloads() {
				names = append(names, w.name)
			}
			return fmt.Errorf("unknown workload %q (known: %s)", *workload, strings.Join(names, ", "))
		}
		selected = []workloadDef{w}
	}

	lockPath := filepath.Join(benchDir, "inputs.lock")
	lock, err := readLock(lockPath)
	if err != nil {
		if !*pin || !os.IsNotExist(err) {
			return err
		}
		lock = lockFile{}
	}

	tmp := filepath.Join(rootDir, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	base := env{
		root:    rootDir,
		tmp:     tmp,
		outDir:  filepath.Join(benchDir, "out"),
		seed:    *seed,
		seconds: *seconds,
		pin:     *pin,
		lock:    lock,
		smoke:   *smoke,
	}
	if *smoke {
		base.seconds = *seconds / 50
	} else {
		buildCtx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
		base.bin, err = buildCsced(buildCtx, rootDir)
		cancel()
		if err != nil {
			return err
		}
	}
	printEnv(base)

	allCorrect := true
	spread := map[string]map[string][]float64{} // workload -> metric -> values
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			ok, metrics, err := runOne(base, w, *trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			allCorrect = allCorrect && ok
			if spread[w.name] == nil {
				spread[w.name] = map[string][]float64{}
			}
			for _, d := range defs(*trace == 1) {
				spread[w.name][d.name] = append(spread[w.name][d.name], metrics[d.name])
			}
		}
	}
	if *repeat > 1 {
		printSpread(selected, spread, *trace == 1)
	}
	if *pin {
		if err := lock.write(lockPath); err != nil {
			return err
		}
		fmt.Printf("pinned %s\n", lockPath)
	}
	if !allCorrect {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// runOne executes one workload under the wall cap and prints its report
// and result line.
func runOne(base env, w workloadDef, traced bool) (bool, map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), wallCap)
	defer cancel()
	e := base
	e.ctx = ctx
	var err error
	if e.tmp, err = scratchDir(&base, w.name); err != nil {
		return false, nil, err
	}
	fn, defs := w.e2e, defs(traced)
	if traced {
		fn = w.traced
	}
	start := time.Now()
	res, err := fn(&e)
	if err != nil {
		return false, nil, err
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, p := range res.problems {
		fmt.Printf("INCORRECT %s: %s\n", w.name, p)
	}
	for _, d := range defs {
		fmt.Printf("%-16s %-32s %14.4f %s\n", w.name, d.name, res.metrics[d.name], d.unit)
	}
	fmt.Printf("%-16s run took %.1fs\n", w.name, time.Since(start).Seconds())
	if res.attempted < 1 {
		return false, nil, fmt.Errorf("no operation was attempted")
	}
	fmt.Println(resultLine(res, defs))
	return res.correct(), res.metrics, nil
}

// defs is the metric list a run reports: per-layer when traced.
func defs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// resultLine renders the driver's result object.
func resultLine(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	line, _ := json.Marshal(out) // plain numbers and strings cannot fail to encode
	return string(line)
}

// findRoot locates the checkout: the given directory, or the nearest
// parent of the working directory that holds cmd/csced.
func findRoot(given string) (string, error) {
	dir := given
	if dir == "" {
		var err error
		if dir, err = os.Getwd(); err != nil {
			return "", err
		}
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "csced", "main.go")); err == nil {
			return d, nil
		}
		if given != "" || d == filepath.Dir(d) {
			return "", fmt.Errorf("no cmd/csced under %s: the benchmark runs from a checkout of the repository", dir)
		}
	}
}

// printEnv records what the numbers were taken on.
func printEnv(e env) {
	commit := "unknown"
	if raw, err := os.ReadFile(filepath.Join(e.root, ".git", "HEAD")); err == nil {
		commit = strings.TrimSpace(string(raw))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if raw, err := os.ReadFile(filepath.Join(e.root, ".git", ref)); err == nil {
				commit = strings.TrimSpace(string(raw))
			}
		}
	}
	fmt.Printf("env: nproc=%d go=%s commit=%s seed=%d seconds=%g smoke=%v csced_flags=defaults+per-workload GOMAXPROCS=unset\n",
		runtime.NumCPU(), runtime.Version(), commit, e.seed, e.seconds, e.smoke)
}

// printSpread prints, per workload and metric, the median and the
// interquartile range as a share of the median over -repeat runs.
func printSpread(selected []workloadDef, spread map[string]map[string][]float64, traced bool) {
	fmt.Println("spread over repeats: workload metric median (q3-q1)/median")
	for _, w := range selected {
		for _, d := range defs(traced) {
			vals := sortedCopy(spread[w.name][d.name])
			med := median(vals)
			q1, q3 := vals[len(vals)/4], vals[(3*len(vals))/4]
			fmt.Printf("%-16s %-32s %14.4f %8.4f\n", w.name, d.name, med, ratio(q3-q1, med))
		}
	}
}
