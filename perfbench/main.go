// Command perfbench is the repository's benchmark: it runs one workload of
// the simulator and its campaign machinery, prints every metric by name and
// unit with the entries attempted and failed, and checks the program's
// outputs. See README.md for the workloads, the metrics and how to run it.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The process that parses these flags is the parent. It launches the
// workload several times as a child process of its own to measure set-up,
// then once more to measure the workload, and prints the result. The last
// line of its standard output is one JSON object with the keys correct,
// attempted, failed and metrics. It exits 0 when every check passed, 1
// when a check failed or a child broke, and 2 on a usage error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

// metric names one reported figure.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the program sees, reported by every
// workload of an untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"sim_events_per_s", "1/s", "higher"},
	{"entries_per_s", "1/s", "higher"},
	{"entry_p50_ms", "ms", "lower"},
	{"entry_p90_ms", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, named after the module they
// measure. A layer a workload does not exercise reads 0 there.
func perLayer() []metric {
	out := []metric{
		{"kern.events", "count", "lower"},
		{"kern.context_switches", "count", "lower"},
		{"kern.ns_per_event", "ns", "lower"},
		{"cpu.instructions", "count", "lower"},
		{"cache.accesses", "count", "lower"},
		{"tlb.walks", "count", "lower"},
		{"btb.lookups", "count", "lower"},
		{"campaign.body_us_p50", "us", "lower"},
		{"campaign.overhead_us_p50", "us", "lower"},
		{"campaign.overhead_us_first", "us", "lower"},
		{"campaign.overhead_us_last", "us", "lower"},
		{"campaign.recover_ms", "ms", "lower"},
		{"campaign.resume_ms", "ms", "lower"},
		{"durable.fsyncs_per_entry", "1/entry", "lower"},
		{"durable.renames_per_entry", "1/entry", "lower"},
		{"durable.bytes_written_per_entry", "B/entry", "lower"},
		{"durable.write_ms", "ms", "lower"},
		{"durable.sync_ms", "ms", "lower"},
		{"durable.bytes_read_on_resume", "B", "lower"},
		{"durable.read_ms", "ms", "lower"},
		{"fabric.requests_per_entry", "1/entry", "lower"},
		{"fabric.http_ms", "ms", "lower"},
		{"fabric.merged_bytes_written_per_entry", "B/entry", "lower"},
		{"fabric.http_retries", "count", "lower"},
		{"fabric.requeues", "count", "lower"},
		{"fabric.steals", "count", "lower"},
		{"labd.jobs", "count", "lower"},
		{"labd.body_ms", "ms", "lower"},
		{"runtime.alloc_bytes_per_entry", "B/entry", "lower"},
		{"runtime.alloc_bytes_per_event", "B/event", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
	}
	for _, id := range repro.IDs() {
		out = append(out, metric{"repro.exp_s." + id, "s", "lower"})
	}
	return out
}

// setupLaunches is how many processes set-up time is the median of: the
// measured child and the probes before it.
const setupLaunches = 11

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	plan     int
	fsync    bool
	cpuprof  string
	workdir  string

	// Set by the parent on its children only.
	child    bool
	probe    bool
	launched int64
	dir      string
	spans    string
}

func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure; whole rounds run until it has passed")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny plans that only exercise the code")
	fs.IntVar(&o.plan, "plan", 0, "entries in the micro-mem, micro-disk and cluster plans, for reference figures (0: the benchmark's sizes)")
	fs.BoolVar(&o.fsync, "fsync", false, "put micro-disk's store on the real disk and let micro-disk and cluster fsync, for reference figures (default: micro-disk in memory, fsyncs counted, not made)")
	fs.StringVar(&o.cpuprof, "cpuprofile", "", "write a CPU profile of the measured workload process to this file")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for the workload's files")
	fs.BoolVar(&o.child, "child", false, "internal: run as the workload process")
	fs.BoolVar(&o.probe, "probe", false, "internal: exit once set-up is measured")
	fs.Int64Var(&o.launched, "launched", 0, "internal: launch time in Unix nanoseconds")
	fs.StringVar(&o.dir, "dir", "", "internal: the child's own directory")
	fs.StringVar(&o.spans, "spans", "", "internal: where the child writes its spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if lookup(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", o.trace)
	}
	if o.plan < 0 {
		return o, fmt.Errorf("--plan must not be negative")
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("--seconds must not be negative")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	if o.child {
		if err := runChild(o, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	if err := orchestrate(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// campaignSeed turns the command's seed into the campaign's base seed
// (splitmix64), never 0: the fabric refuses seed 0.
func campaignSeed(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// runChild is the workload process.
func runChild(o options, stdout io.Writer) error {
	b := &bench{
		ctx:      context.Background(),
		seed:     campaignSeed(o.seed),
		seconds:  time.Duration(o.seconds * float64(time.Second)),
		smoke:    o.smoke,
		plan:     o.plan,
		fsync:    o.fsync,
		dir:      o.dir,
		launched: time.Unix(0, o.launched),
		probe:    o.probe,
		out:      stdout,
		res:      result{EndToEnd: map[string]float64{}, Layers: map[string]float64{}},
	}
	if o.trace == 1 {
		b.rec = newRecorder()
	}
	if o.cpuprof != "" && !o.probe {
		f, err := os.Create(o.cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := lookup(o.workload).run(b); err != nil {
		return err
	}
	if b.probe {
		return errors.New("the workload ended without starting an entry")
	}
	r := &b.res
	r.SetupS = b.setup.Seconds()
	r.Rounds = b.rounds
	r.Problems = b.problems
	r.Correct = len(b.problems) == 0
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if b.rec != nil {
		if ev := r.Layers["kern.events"]; ev > 0 {
			var body time.Duration
			for _, name := range []string{"exps.run", "labd.run"} {
				for _, d := range b.rec.durations(name) {
					body += d
				}
			}
			r.Layers["kern.ns_per_event"] = float64(body) / (ev * float64(b.rounds))
		}
		if o.spans != "" {
			if err := b.rec.write(o.spans); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// orchestrate is the parent: set-up probes, the measured child, and the
// report.
func orchestrate(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runDir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	launches := setupLaunches
	if o.smoke {
		launches = 2
	}
	var setups []float64
	for i := 0; i < launches-1; i++ {
		out, _, err := launch(self, o, filepath.Join(runDir, fmt.Sprintf("probe-%d", i)), true, stderr)
		if err != nil {
			return fmt.Errorf("set-up probe %d: %w", i, err)
		}
		var p probeResult
		if err := json.Unmarshal(out, &p); err != nil {
			return fmt.Errorf("set-up probe %d: %w", i, err)
		}
		setups = append(setups, p.SetupS)
	}
	out, rusage, err := launch(self, o, filepath.Join(runDir, "main"), false, stderr)
	if err != nil {
		return err
	}
	var r result
	if err := json.Unmarshal(out, &r); err != nil {
		return fmt.Errorf("reading the workload's result: %w", err)
	}
	setups = append(setups, r.SetupS)
	r.EndToEnd["setup_s"] = median(setups)
	r.EndToEnd["max_rss_mb"] = float64(rusage.Maxrss) / 1024 // Linux reports KiB

	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "perfbench: workload %s, seed %d (campaign seed %d), %d round(s), trace %d\n",
		o.workload, o.seed, campaignSeed(o.seed), r.Rounds, o.trace)
	fmt.Fprintf(w, "host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n", cpuModel(), runtime.NumCPU(), r.GOMAXPROCS, runtime.Version())
	fmt.Fprintf(w, "set-up: median of %d launches: %.6f s\n", len(setups), r.EndToEnd["setup_s"])
	fmt.Fprintf(w, "entries: attempted %d, failed %d\n", r.Attempted, r.Failed)
	for i, rs := range r.PerRound {
		fmt.Fprintf(w, "round %d: %.3f s, cpu %.3f s, entry p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n", i, rs.Seconds, rs.CPUSeconds, rs.P50ms, rs.P90ms, rs.P99ms)
	}
	for _, k := range sortedKeys(r.Ops) {
		fmt.Fprintf(w, "cluster: %s %d\n", k, r.Ops[k])
	}
	// Both runs compute every figure; the traced run's end-to-end figures
	// show what tracing costs.
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end-to-end %-40s %14.6g %s\n", m.name, r.EndToEnd[m.name], m.unit)
	}
	metrics := map[string]any{}
	if o.trace == 1 {
		for _, m := range perLayer() {
			fmt.Fprintf(w, "layer      %-40s %14.6g %s\n", m.name, r.Layers[m.name], m.unit)
			metrics[m.name] = map[string]any{"value": r.Layers[m.name], "unit": m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": r.EndToEnd[m.name], "unit": m.unit}
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if err := w.Flush(); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("%d check(s) failed", len(r.Problems))
	}
	return nil
}

// launch runs one child process to its end and returns the last line of
// its standard output and its resource usage.
func launch(self string, o options, dir string, probe bool, stderr io.Writer) ([]byte, *syscall.Rusage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	args := []string{"-child", "-dir", dir,
		"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
	if probe {
		args = append(args, "-probe")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.plan > 0 {
		args = append(args, "-plan", strconv.Itoa(o.plan))
	}
	if o.fsync {
		args = append(args, "-fsync")
	}
	if o.cpuprof != "" {
		args = append(args, "-cpuprofile", o.cpuprof)
	}
	if o.trace == 1 && !probe {
		args = append(args, "-spans", filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)))
	}
	var out bytes.Buffer
	cmd := exec.Command(self)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	launched := time.Now()
	cmd.Args = append(cmd.Args, append(args, "-launched", strconv.FormatInt(launched.UnixNano(), 10))...)
	if err := cmd.Run(); err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	rusage, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if rusage == nil {
		rusage = &syscall.Rusage{}
	}
	return []byte(lines[len(lines)-1]), rusage, nil
}

// childEnv marks a child process; a test binary standing in for the
// command checks it to run as perfbench.
const childEnv = "PERFBENCH_CHILD"

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys(m map[string]int64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
