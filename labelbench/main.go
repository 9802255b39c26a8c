// Command labelbench is labeld's end-to-end benchmark. It builds
// cmd/labeld from the source tree, runs it as a child process on a free
// loopback port, and drives it over HTTP from two closed-loop clients with
// the paper's Table 2 queries (Q1–Q9) on a seeded Shakespeare-shaped
// corpus, or with fsync'd order-sensitive sibling inserts (Section 5.4).
// Every answer is checked after the timed phase against the label-free
// xpath.TreeEval oracle and the benchmark's own prime labeling of the same
// tree. See README.md in this directory for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash labelbench/run.sh --workload table2-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer split.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options are the settings of one invocation: the first four come from
// the command line, the rest are fixed there and smaller in the smoke test.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	elements int    // corpus size
	setups   int    // labeld set-ups; setup_s is their median
	labeld   string // prebuilt labeld binary; empty builds primelabel/cmd/labeld
	workdir  string // the labeld binary and its temporary data dirs
}

// metric is one named, unit-carrying measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{elements: 20000, setups: 5, workdir: ".bench_build"}
	var traceFlag int
	fs := flag.NewFlagSet("labelbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed for the corpus, the query order and the update positions")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer split instead of the end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traceFlag != 0
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "labelbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation and prints its report to out.
func run(o options, out io.Writer) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	workdir, err := filepath.Abs(o.workdir)
	if err != nil {
		return err
	}
	o.workdir = workdir

	// Every exit path — return, error, or a signal — stops labeld and
	// removes its data dir.
	procs := &registry{}
	defer procs.stopAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()
	go func() {
		if _, ok := <-sigs; ok {
			procs.stopAll()
			os.Exit(1)
		}
	}()

	in, err := newInputs(o.seed, o.elements)
	if err != nil {
		return err
	}
	bin := o.labeld
	if bin == "" {
		if bin, err = buildLabeld(o.workdir); err != nil {
			return err
		}
	}

	setups := o.setups
	if o.trace {
		setups = 1 // a traced run reports no setup_s
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	srv, setupS, err := setUpMedian(procs, hc, bin, o.workdir, w, in, setups)
	if err != nil {
		return err
	}

	plainDur := seconds(o.seconds)
	if o.trace {
		plainDur /= 2
	}
	plain, err := runPhase(hc, srv, w, in, plainDur, false, 0)
	if err != nil {
		return err
	}
	var traced *phaseResult
	if o.trace {
		if traced, err = runPhase(hc, srv, w, in, plainDur, true, plain.count(kindInsert)); err != nil {
			return err
		}
	}
	procs.stop(srv)

	ver := verify(w, in, plain, traced)
	// Checking was the last use of the kept bodies; drop them so the
	// in-process layer timings below do not run beside a large heap.
	for _, p := range []*phaseResult{plain, traced} {
		if p != nil {
			for i := range p.samples {
				p.samples[i].body = nil
			}
		}
	}
	runtime.GC()
	e2e := endToEnd(w, plain, setupS, ver)

	metrics := make(map[string]metric)
	printMetrics(out, o.workload, "e2e", e2e.all)
	fmt.Fprintf(out, "labelbench: %s samples: reads=%d streams=%d updates=%d\n",
		o.workload, plain.count(kindFull)+plain.count(kindCount), plain.count(kindStream), plain.count(kindInsert)+plain.count(kindDelete))
	fmt.Fprintf(out, "labelbench: %s regime: %s\n", o.workload, regime(w, plain))
	for _, p := range []*phaseResult{plain, traced} {
		if p != nil {
			fmt.Fprintf(out, "labelbench: %s windows: measured %.1fs in %d of %d windows (the rest lost CPU to steal)\n",
				o.workload, p.measured.Seconds(), p.cleanWindows(), len(p.windows))
		}
	}
	if o.trace {
		layers, err := perLayer(w, in, o.workdir, plain, traced)
		if err != nil {
			return err
		}
		printMetrics(out, o.workload, "layer", layers)
		for name, m := range layers {
			metrics[name] = m
		}
	} else {
		for name, m := range e2e.gated {
			metrics[name] = m
		}
	}
	for _, msg := range ver.messages {
		fmt.Fprintf(out, "labelbench: %s CHECK FAILED: %s\n", o.workload, msg)
	}
	res := result{
		Correct:   ver.failed == 0 && ver.attempted > 0,
		Attempted: ver.attempted,
		Failed:    ver.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(out io.Writer, workload, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "labelbench: %s %s %s = %.6g %s\n", workload, kind, n, ms[n].Value, ms[n].Unit)
	}
}

// seconds converts a float second count to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
