package main

// child.go is the workload process: it sets a workload up, measures whole
// rounds of it for the requested time, checks the outputs, and prints one
// JSON result line for the parent.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// bench is one workload process's state.
type bench struct {
	ctx      context.Context
	seed     uint64 // campaign seed, derived from the command's --seed
	seconds  time.Duration
	smoke    bool
	plan     int  // overrides the micro plans' entry count when positive
	fsync    bool // micro-disk and cluster fsync on the real disk; see diskFS
	dir      string
	launched time.Time
	probe    bool
	out      io.Writer
	rec      *recorder // nil when untraced

	setupOnce sync.Once
	setup     time.Duration
	start     time.Time // end of set-up: the first timed entry's start

	// The measured part of the round in progress, and of all rounds.
	clock       roundStat
	allocs, gcs uint64
	rounds      int
	problems    []string
	res         result
}

// result is what a workload reports; the child adds set-up and runtime
// figures and prints it.
type result struct {
	SetupS    float64            `json:"setup_s"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Ops       map[string]int64   `json:"ops,omitempty"`
	// GOMAXPROCS is the child's; the parent sets it to the CPU count.
	GOMAXPROCS int         `json:"gomaxprocs"`
	PerRound   []roundStat `json:"per_round"`
}

// roundStat is one measured round: its wall and CPU time, and its
// entries' latency percentiles.
type roundStat struct {
	Seconds    float64 `json:"s"`
	CPUSeconds float64 `json:"cpu_s"`
	P50ms      float64 `json:"p50_ms"`
	P90ms      float64 `json:"p90_ms"`
	P99ms      float64 `json:"p99_ms"`
}

// probeResult is what a set-up probe prints before it exits.
type probeResult struct {
	SetupS float64 `json:"setup_s"`
}

// entryStarted ends set-up at the first timed entry. A probe process has
// measured all it was started for and exits here.
func (b *bench) entryStarted() {
	b.setupOnce.Do(func() {
		b.start = time.Now()
		b.setup = b.start.Sub(b.launched)
		if b.probe {
			line, _ := json.Marshal(probeResult{SetupS: b.setup.Seconds()})
			fmt.Fprintln(b.out, string(line))
			os.Exit(0)
		}
	})
}

func (b *bench) failf(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// timed runs f as part of the round's measured time: the calls into the
// program that run the plan (RunParallel, Resume, the fabric's Run). What
// the benchmark does around them, such as encoding and checking manifests,
// is left out, and every round is timed the same way.
func (b *bench) timed(f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu := time.Now(), cpuTime()
	err := f()
	end, cpuEnd := time.Now(), cpuTime()
	runtime.ReadMemStats(&m1)
	b.clock.Seconds += end.Sub(start).Seconds()
	b.clock.CPUSeconds += (cpuEnd - cpu).Seconds()
	b.allocs += m1.TotalAlloc - m0.TotalAlloc
	b.gcs += uint64(m1.NumGC - m0.NumGC)
	return err
}

// measure runs whole rounds until the measured time has passed since the
// first timed entry; round gets its index. t's latencies are split by
// round.
func (b *bench) measure(t *tracker, round func(r int) error) error {
	for r := 0; ; r++ {
		b.clock = roundStat{}
		if err := round(r); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		lat := t.takeLatencies()
		b.clock.P50ms, b.clock.P90ms, b.clock.P99ms = quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99)
		b.res.PerRound = append(b.res.PerRound, b.clock)
		b.rounds++
		if time.Since(b.start) >= b.seconds {
			return nil
		}
	}
}

// roundSpan opens a round's root span.
func (b *bench) roundSpan() (int64, time.Time) { return b.rec.id(), time.Now() }

// summarize fills the end-to-end figures every workload shares, from the
// entries and simulated events of one round, and the runtime layer
// figures. Rates and latency percentiles are medians over rounds of each
// round's figure, so a burst of load from elsewhere on the host that
// spoils one round does not move them. The tail reported is the p90: the
// p99 of sub-millisecond entries follows the host's vCPU jitter from run
// to run (see README.md); each round's p99 is still printed.
func (b *bench) summarize(entries int, events int64) {
	var perEntry, perEvent, p50, p90 []float64
	for _, rs := range b.res.PerRound {
		perEntry = append(perEntry, float64(entries)/rs.Seconds)
		perEvent = append(perEvent, float64(events)/rs.Seconds)
		p50 = append(p50, rs.P50ms)
		p90 = append(p90, rs.P90ms)
	}
	r := &b.res
	r.Attempted = b.rounds * entries
	r.EndToEnd["entries_per_s"] = median(perEntry)
	r.EndToEnd["sim_events_per_s"] = median(perEvent)
	r.EndToEnd["entry_p50_ms"] = median(p50)
	r.EndToEnd["entry_p90_ms"] = median(p90)
	total := b.rounds * entries
	r.Layers["runtime.alloc_bytes_per_entry"] = float64(b.allocs) / float64(max(total, 1))
	r.Layers["runtime.alloc_bytes_per_event"] = float64(b.allocs) / float64(max(int64(b.rounds)*events, 1))
	r.Layers["runtime.gc_cycles"] = float64(b.gcs) / float64(b.rounds)
}

// serialLayers fills the campaign figures of a serial workload from its
// entry cycles. plan is the round's plan length.
func (b *bench) serialLayers(t *tracker, plan int) {
	var body, over, first, last []float64
	tenth := max(plan/10, 1)
	for _, c := range t.cycles {
		o := float64(c.total-c.body) / 1e3
		body = append(body, float64(c.body)/1e3)
		over = append(over, o)
		switch {
		case c.pos < tenth:
			first = append(first, o)
		case c.pos >= plan-tenth:
			last = append(last, o)
		}
	}
	l := b.res.Layers
	l["campaign.body_us_p50"] = quantile(body, 0.5)
	l["campaign.overhead_us_p50"] = quantile(over, 0.5)
	l["campaign.overhead_us_first"] = quantile(first, 0.5)
	l["campaign.overhead_us_last"] = quantile(last, 0.5)
}

// telemetryLayers fills the simulator's work counts from one round's
// records (every round does the same work) and returns its event count.
func (b *bench) telemetryLayers(recs []*campaign.Record) int64 {
	l := b.res.Layers
	var events int64
	for name, family := range map[string]string{
		"kern.events":           "kern_events_total",
		"kern.context_switches": "kern_sched_in_total",
		"cpu.instructions":      "cpu_instructions_total",
		"cache.accesses":        "cache_access_total",
		"tlb.walks":             "tlb_walks_total",
		"btb.lookups":           "btb_lookup_total",
	} {
		var n int64
		for _, rec := range recs {
			n += telemetryTotal(rec.Telemetry, family)
		}
		l[name] = float64(n)
		if name == "kern.events" {
			events = n
		}
	}
	return events
}

// telemetryTotal sums a telemetry counter over its labels.
func telemetryTotal(tel map[string]int64, family string) int64 {
	var n int64
	for k, v := range tel {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return n
}

// failedOf counts failed records.
func failedOf(recs []*campaign.Record) int {
	n := 0
	for _, rec := range recs {
		if rec.Status == campaign.StatusFailed {
			n++
		}
	}
	return n
}

// checkOrder checks that a round committed every planned id exactly once,
// in plan order.
func (b *bench) checkOrder(round int, plan, committed []string) {
	if len(committed) != len(plan) {
		b.failf("round %d committed %d entries, plan has %d", round, len(committed), len(plan))
		return
	}
	for i, id := range plan {
		if committed[i] != id {
			b.failf("round %d committed %s at position %d, plan has %s", round, committed[i], i, id)
			return
		}
	}
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
