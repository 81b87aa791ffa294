package main

// workloads.go defines the four workloads. Each one sets up, measures whole
// rounds of the same plan under the same campaign seed (so every round
// does the same work and must give the same manifest), and then checks its
// outputs against independent computations and against a reference run
// made without any benchmark hook.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/exps"
	"repro/internal/fabric"
	"repro/internal/labd"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json lists
// paper-suite and micro-mem. micro-disk and cluster are left out of it:
// their figures follow the host's share of the second vCPU, from run to
// run and set to set, by more than any bound the benchmark may set (see
// README.md). They stay runnable for the durable, fabric, labd and HTTP
// figures.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"paper-suite", paperSuite},
	{"micro-mem", microMem},
	{"micro-disk", microDisk},
	{"cluster", cluster},
}

// sizes are a workload's plan sizes. The smoke sizes only exercise the
// code paths.
type sizes struct {
	paperIDs []string // nil: every registered experiment
	micro    int      // micro-mem entries
	disk     int      // micro-disk entries
	sessions int      // micro-disk sessions per round: it halts every disk/sessions entries
	nodes    int      // cluster entries
	shard    int      // cluster entries per shard
	poll     time.Duration
}

var (
	fullSizes  = sizes{micro: 10_000, disk: 500, sessions: 2, nodes: 1000, shard: 25, poll: 2 * time.Millisecond}
	smokeSizes = sizes{paperIDs: []string{"tab2.1", "fig4.1", "abl.mitigation", "fig5.1", "fig5.4"},
		micro: 40, disk: 12, sessions: 3, nodes: 12, shard: 4, poll: 2 * time.Millisecond}
)

// sizes picks the plan sizes; a positive plan overrides every micro plan's
// entry count.
func (b *bench) sizes() sizes {
	sz := fullSizes
	if b.smoke {
		sz = smokeSizes
	}
	if b.plan > 0 {
		sz.micro, sz.disk, sz.nodes = b.plan, b.plan, b.plan
	}
	return sz
}

// retries is the guarded runner's retry budget, the cplab default.
const retries = 2

// note pins the benchmark's campaigns' configuration.
const note = "perfbench"

// paperSuite is what `cplab all` regenerates: one serial in-memory campaign
// over every registered experiment at quick scale.
func paperSuite(b *bench) error {
	o := repro.Options{Seed: b.seed}
	ids := idsOf(repro.CampaignEntries(b.sizes().paperIDs, o, retries))
	t := newTracker(b, "exps.run", true, false)
	var first []byte
	var recs []*campaign.Record
	err := b.measure(t, func(r int) error {
		t.reset()
		data, man, err := runInMemory(b, t, repro.CampaignEntries(ids, o, retries))
		if err != nil {
			return err
		}
		committed, rs := t.round()
		b.checkOrder(r, ids, committed)
		if r == 0 {
			first, recs = data, rs
			b.checkPaper(man)
		} else if !bytes.Equal(data, first) {
			b.failf("round %d manifest differs from round 0 under the same seed", r)
		}
		b.res.Failed += failedOf(rs)
		return nil
	})
	if err != nil {
		return err
	}
	events := b.telemetryLayers(recs)
	b.summarize(len(ids), events)
	b.serialLayers(t, len(ids))
	for _, id := range repro.IDs() {
		b.res.Layers["repro.exp_s."+id] = t.expBody[id].Seconds() / float64(b.rounds)
	}
	if b.rec != nil {
		data, _, err := runPlain(b, repro.CampaignEntries(ids, o, retries), "", nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, first) {
			b.failf("traced manifest differs from an untraced run of the same plan")
		}
	}
	return nil
}

// microMem is one serial in-memory campaign of tiny machine-bound entries:
// the fixed per-entry cost of the campaign machinery.
func microMem(b *bench) error {
	n := b.sizes().micro
	plan := idsOf(repro.MicroBenchEntries(n))
	t := newTracker(b, "exps.run", true, false)
	var first []byte
	var recs []*campaign.Record
	err := b.measure(t, func(r int) error {
		t.reset()
		data, _, err := runInMemory(b, t, repro.MicroBenchEntries(n))
		if err != nil {
			return err
		}
		committed, rs := t.round()
		b.checkOrder(r, plan, committed)
		b.checkMicro(r, rs)
		if r == 0 {
			first, recs = data, rs
		} else if !bytes.Equal(data, first) {
			b.failf("round %d manifest differs from round 0 under the same seed", r)
		}
		b.res.Failed += failedOf(rs)
		return nil
	})
	if err != nil {
		return err
	}
	events := b.telemetryLayers(recs)
	b.summarize(n, events)
	b.serialLayers(t, n)
	if b.rec != nil {
		data, _, err := runPlain(b, repro.MicroBenchEntries(n), "", nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, first) {
			b.failf("traced manifest differs from an untraced run of the same plan")
		}
	}
	return nil
}

// diskFS is a fresh filesystem for micro-disk's store: in memory, or the
// real disk with fsync when --fsync asks for it.
func (b *bench) diskFS() durable.FS {
	if b.fsync {
		return durable.OS()
	}
	return newMemFS()
}

// clusterFS is the filesystem under cluster's stores: real files, since
// labd serves manifests with os.ReadFile, without fsync unless --fsync
// asks for it.
func (b *bench) clusterFS() durable.FS {
	if b.fsync {
		return durable.OS()
	}
	return syncFree{durable.OS()}
}

// runInMemory runs one measured round of an in-memory campaign.
func runInMemory(b *bench, t *tracker, entries []campaign.Entry) ([]byte, *campaign.Manifest, error) {
	round, start := b.roundSpan()
	c, err := t.open(round, "campaign.new", func() (*campaign.Campaign, error) {
		return campaign.New(campaign.Config{Seed: b.seed, Note: note, OnRecord: t.onRecord}, t.wrap(entries))
	})
	if err != nil {
		return nil, nil, err
	}
	man, err := t.run(round, c, 1)
	b.rec.add(round, 0, "round", "", start, time.Now())
	if err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(man)
	return data, man, err
}

// runPlain runs a plan serially with no benchmark hook at all, in memory
// when path is "" and checkpointed to path on fsys otherwise. It returns the
// manifest's bytes: the JSON encoding in memory, the file on disk.
func runPlain(b *bench, entries []campaign.Entry, path string, fsys durable.FS) ([]byte, *campaign.Manifest, error) {
	c, err := campaign.New(campaign.Config{Path: path, Seed: b.seed, Note: note, FS: fsys}, entries)
	if err != nil {
		return nil, nil, err
	}
	man, err := c.RunParallel(b.ctx, 1)
	if err != nil {
		return nil, nil, err
	}
	if path == "" {
		data, err := json.Marshal(man)
		return data, man, err
	}
	data, err := fsys.ReadFile(path)
	return data, man, err
}

// microDisk checkpoints micro entries to a manifest and journal on disk and
// runs each round's plan in sessions: it halts every halt entries and is
// reopened with campaign.Resume until the plan is done.
func microDisk(b *bench) error {
	sz := b.sizes()
	plan := idsOf(repro.MicroBenchEntries(sz.disk))
	halt := (sz.disk + sz.sessions - 1) / sz.sessions
	t := newTracker(b, "exps.run", true, true)
	stats := &fsStats{}
	var first []byte
	var firstPath string
	var firstFS durable.FS
	var recs []*campaign.Record
	var recoverSum time.Duration
	err := b.measure(t, func(r int) error {
		t.reset()
		round, start := b.roundSpan()
		dir := filepath.Join(b.dir, fmt.Sprintf("disk-%d", r))
		base := b.diskFS()
		if err := base.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, "manifest.json")
		fsys := newTimedFS(base, b.rec, stats, t.parent)
		fsys.watch(path, t.commit)
		cfg := campaign.Config{Path: path, Seed: b.seed, Note: note, HaltAfter: halt, FS: fsys, OnRecord: t.onRecord}
		entries := t.wrap(repro.MicroBenchEntries(sz.disk))
		c, err := t.open(round, "campaign.new", func() (*campaign.Campaign, error) { return campaign.New(cfg, entries) })
		for sessions := 1; err == nil; sessions++ {
			_, err = t.run(round, c, 1)
			if !errors.Is(err, campaign.ErrHalted) {
				break
			}
			if sessions > sz.sessions {
				return fmt.Errorf("still halting after %d sessions", sessions)
			}
			err = b.timed(func() (err error) {
				at := time.Now()
				t.resumeCalled(at)
				c, err = t.open(round, "campaign.resume", func() (*campaign.Campaign, error) { return campaign.Resume(cfg, entries) })
				recoverSum += time.Since(at)
				return err
			})
		}
		b.rec.add(round, 0, "round", "", start, time.Now())
		if err != nil {
			return err
		}
		data, err := base.ReadFile(path)
		if err != nil {
			return err
		}
		committed, rs := t.round()
		b.checkOrder(r, plan, committed)
		b.checkMicro(r, rs)
		if r == 0 {
			first, firstPath, firstFS, recs = data, path, base, rs
		} else {
			if !bytes.Equal(data, first) {
				b.failf("round %d manifest differs from round 0 under the same seed", r)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		b.res.Failed += failedOf(rs)
		return nil
	})
	if err != nil {
		return err
	}
	st := stats.snapshot()
	events := b.telemetryLayers(recs)
	entries := b.rounds * sz.disk
	b.summarize(sz.disk, events)
	b.serialLayers(t, sz.disk)
	b.durableLayers(st, entries)
	l := b.res.Layers
	l["campaign.resume_ms"] = ms(t.resumeSum) / float64(b.rounds)
	l["campaign.recover_ms"] = ms(recoverSum) / float64(b.rounds)
	// A fresh campaign reads nothing: every byte read is recovery's.
	l["durable.bytes_read_on_resume"] = float64(st.readBytes) / float64(b.rounds)

	// The halted-and-resumed file must equal an uninterrupted run's and
	// reload through recovery.
	ref := filepath.Join(b.dir, "disk-reference", "manifest.json")
	refFS := b.diskFS()
	if err := refFS.MkdirAll(filepath.Dir(ref), 0o755); err != nil {
		return err
	}
	data, _, err := runPlain(b, repro.MicroBenchEntries(sz.disk), ref, refFS)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, first) {
		b.failf("halted-and-resumed manifest differs from an uninterrupted run of the same plan")
	}
	man, _, err := campaign.LoadRecovered(firstFS, firstPath)
	switch {
	case err != nil:
		b.failf("manifest does not reload through campaign.LoadRecovered: %v", err)
	case !man.Complete() || len(man.Entries) != sz.disk:
		b.failf("reloaded manifest holds %d of %d entries", len(man.Entries), sz.disk)
	}
	return nil
}

// cluster shards a micro plan across two in-process labd workers through
// a fabric coordinator over loopback HTTP, with the merged manifest on
// disk.
func cluster(b *bench) error {
	sz := b.sizes()
	byID := map[string]campaign.Entry{}
	for _, e := range repro.MicroBenchEntries(sz.nodes) {
		byID[e.ID] = e
	}
	plan := idsOf(repro.MicroBenchEntries(sz.nodes))
	t := newTracker(b, "labd.run", false, true)
	stats := &fsStats{}
	hstats := &httpStats{}

	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := labd.NewServer(labd.Config{
			StateDir: filepath.Join(b.dir, fmt.Sprintf("labd-%d", i)),
			FS:       newTimedFS(b.clusterFS(), b.rec, stats, t.parent),
			Note:     func(labd.Spec) string { return note },
			Entries: func(sp labd.Spec) []campaign.Entry {
				out := make([]campaign.Entry, 0, len(sp.IDs))
				for _, id := range sp.IDs {
					out = append(out, byID[id])
				}
				return t.wrap(out)
			},
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		srv.Start()
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
			<-served
			_ = srv.Drain(ctx)
		}()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	transport := &timedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), rec: b.rec, stats: hstats, parent: t.parent}
	defer transport.base.CloseIdleConnections()
	fsys := newTimedFS(b.clusterFS(), b.rec, stats, t.parent)
	fsys.merged = true

	var first []byte
	var recs []*campaign.Record
	ops := map[string]int64{}
	var bodies time.Duration
	err := b.measure(t, func(r int) error {
		t.reset()
		round, start := b.roundSpan()
		path := filepath.Join(b.dir, fmt.Sprintf("cluster-%d", r), "merged.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		fsys.watch(path, t.commit)
		co, err := fabric.New(fabric.Config{
			Workers:        urls,
			Spec:           labd.Spec{Seed: b.seed, Parallel: 1},
			Note:           note,
			Path:           path,
			ShardSize:      sz.shard,
			RequestTimeout: 30 * time.Second,
			PollInterval:   sz.poll,
			HangTimeout:    2 * time.Minute,
			StealAfter:     30 * time.Second,
			Transport:      transport,
			FS:             fsys,
		}, plan)
		if err != nil {
			return err
		}
		run := b.rec.id()
		t.within(run)
		runStart := time.Now()
		var man *campaign.Manifest
		err = b.timed(func() (err error) {
			man, err = co.Run(b.ctx)
			return err
		})
		b.rec.add(run, round, "fabric.run", "", runStart, time.Now())
		b.rec.add(round, 0, "round", "", start, time.Now())
		if err != nil {
			return err
		}
		var text strings.Builder
		if err := co.WriteMetrics(&text); err != nil {
			return err
		}
		for k, v := range promCounters(text.String()) {
			ops[k] += v
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		committed, _ := t.round()
		b.checkOrder(r, plan, committed)
		rs := records(man)
		b.checkMicro(r, rs)
		if r == 0 {
			first, recs = data, rs
		} else {
			if !bytes.Equal(data, first) {
				b.failf("round %d merged manifest differs from round 0 under the same seed", r)
			}
			if err := os.RemoveAll(filepath.Dir(path)); err != nil {
				return err
			}
		}
		b.res.Failed += failedOf(rs)
		return nil
	})
	if err != nil {
		return err
	}
	for _, d := range b.rec.durations("labd.run") {
		bodies += d
	}
	st := stats.snapshot()
	events := b.telemetryLayers(recs)
	entries := b.rounds * sz.nodes
	b.summarize(sz.nodes, events)
	b.durableLayers(st, entries)
	rounds := float64(b.rounds)
	l := b.res.Layers
	l["fabric.requests_per_entry"] = float64(hstats.requests.Load()) / float64(entries)
	l["fabric.merged_bytes_written_per_entry"] = float64(st.mergedBytes) / float64(entries)
	l["labd.jobs"] = float64(ops["fabric_jobs_submitted_total"]) / rounds
	l["labd.body_ms"] = ms(bodies) / rounds
	l["fabric.http_retries"] = float64(ops["fabric_http_retries_total"]) / rounds
	l["fabric.requeues"] = float64(ops["fabric_shard_requeues_total"]) / rounds
	l["fabric.steals"] = float64(ops["fabric_shard_steals_total"]) / rounds
	b.res.Ops = map[string]int64{
		"http_retries": ops["fabric_http_retries_total"],
		"requeues":     ops["fabric_shard_requeues_total"],
		"steals":       ops["fabric_shard_steals_total"],
	}

	ref := filepath.Join(b.dir, "cluster-reference", "serial.json")
	if err := os.MkdirAll(filepath.Dir(ref), 0o755); err != nil {
		return err
	}
	data, _, err := runPlain(b, repro.MicroBenchEntries(sz.nodes), ref, b.clusterFS())
	if err != nil {
		return err
	}
	if !bytes.Equal(data, first) {
		b.failf("merged manifest differs from a serial on-disk campaign of the same plan")
	}
	return nil
}

// durableLayers fills the persistence figures.
func (b *bench) durableLayers(st fsCounts, entries int) {
	l := b.res.Layers
	per := float64(entries)
	l["durable.fsyncs_per_entry"] = float64(st.syncs) / per
	l["durable.renames_per_entry"] = float64(st.renames) / per
	l["durable.bytes_written_per_entry"] = float64(st.writtenBytes) / per
	rounds := float64(b.rounds)
	self := b.rec.selfTimes()
	l["durable.write_ms"] = ms(self["durable.write"]) / rounds
	l["durable.sync_ms"] = ms(self["durable.sync"]) / rounds
	l["durable.read_ms"] = ms(self["durable.read"]) / rounds
	l["fabric.http_ms"] = ms(self["http.get"]+self["http.post"]+self["http.delete"]) / rounds
}

// checkMicro checks properties every micro entry must have: it succeeded,
// and entries run under the same seed simulated the same events.
func (b *bench) checkMicro(round int, recs []*campaign.Record) {
	if len(recs) == 0 {
		return
	}
	want := telemetryTotal(recs[0].Telemetry, "kern_events_total")
	if want == 0 {
		b.failf("round %d: entry %s simulated no kernel events", round, recs[0].ID)
	}
	for _, rec := range recs {
		if got := telemetryTotal(rec.Telemetry, "kern_events_total"); got != want {
			b.failf("round %d: entry %s simulated %d kernel events, %s simulated %d under the same seed",
				round, rec.ID, got, recs[0].ID, want)
			return
		}
		if rec.Status != campaign.StatusOK || rec.Rendered != "ok" {
			b.failf("round %d: entry %s ended %s", round, rec.ID, rec.Status)
			return
		}
	}
}

// checkPaper checks the paper-suite's headline numbers against values
// computed apart from the program, or against properties the attack must
// have.
func (b *bench) checkPaper(man *campaign.Manifest) {
	metric := func(id, key string) (float64, bool) {
		rec := man.Entries[id]
		if rec == nil || rec.Metrics == nil {
			return 0, false
		}
		v, ok := rec.Metrics[key]
		return v, ok
	}
	check := func(id, key string, ok func(float64) bool, want string) {
		v, found := metric(id, key)
		if _, planned := man.Entries[id]; !planned {
			return
		}
		if !found || !ok(v) {
			b.failf("%s %s = %v, want %s", id, key, v, want)
		}
	}
	near := func(want, tol float64) func(float64) bool {
		return func(v float64) bool { return math.Abs(v-want) <= tol*want }
	}
	// Linux's CFS scales its latency tunables by 1+ilog2(min(ncpu, 8))
	// (SCHED_TUNABLESCALING_LOG): sysctl_sched_latency 6 ms, wakeup
	// granularity 1 ms. GENTLE_FAIR_SLEEPERS halves the latency for the
	// sleeper credit.
	factor := 1 + math.Floor(math.Log2(float64(min(exps.Cores, 8))))
	bnd, preempt := 6*factor, 1*factor
	slack := bnd / 2
	check("tab2.1", "S_bnd_ms", near(bnd, 1e-9), fmt.Sprint(bnd))
	check("tab2.1", "S_preempt_ms", near(preempt, 1e-9), fmt.Sprint(preempt))
	check("tab2.1", "S_slack_ms", near(slack, 1e-9), fmt.Sprint(slack))
	check("tab2.1", "budget_ms", near(slack-preempt, 1e-9), fmt.Sprint(slack-preempt))
	check("fig4.1", "slack_at_wake_ms", near(slack, 0.02), fmt.Sprintf("≈ S_slack = %v", slack))
	check("fig4.1", "delta_at_failure_ms", near(preempt, 0.05), fmt.Sprintf("≈ S_preempt = %v", preempt))
	check("abl.mitigation", "variant_burst", func(v float64) bool { return v == 0 }, "0")
	// Chance is 1/16 for an AES key nibble and 1/2 for a GCD branch.
	for _, id := range []string{"fig5.1", "fig5.1e"} {
		check(id, "nibble_accuracy", func(v float64) bool { return v >= 8.0/16 }, "≥ 8× chance (1/16)")
	}
	check("fig5.4", "branch_accuracy", func(v float64) bool { return v >= 0.9 }, "≥ 0.9 (chance 1/2)")
}

// promCounters reads the unlabelled counters of a Prometheus text dump.
func promCounters(text string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		var name string
		var v int64
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if n, _ := fmt.Sscanf(line, "%s %d", &name, &v); n == 2 {
			out[name] = v
		}
	}
	return out
}

func idsOf(entries []campaign.Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

// records lists a manifest's records in plan order.
func records(man *campaign.Manifest) []*campaign.Record {
	out := make([]*campaign.Record, 0, len(man.IDs))
	for _, id := range man.IDs {
		if rec := man.Entries[id]; rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
