package main

import (
	"sync"
	"time"

	"repro/internal/campaign"
)

// tracker follows every entry of a round from the start of its
// Entry.Run to its record's commit. In memory the commit is the OnRecord
// call; on disk it is the fsync of the record's journal append, which the
// timedFS reports through commit.
//
// For a serial campaign it also keeps each entry's cycle: the time from
// the previous commit (or the session's start) to this one. The cycle
// minus the entry's Entry.Run is the campaign's per-entry overhead, which
// includes the bookkeeping done between one commit and the next start.
type tracker struct {
	b        *bench
	bodyName string // span name of an Entry.Run: "exps.run" or "labd.run"
	serial   bool
	disk     bool

	mu      sync.Mutex
	starts  map[string]time.Time
	bodies  map[string]time.Duration
	pending []string
	commits []string           // commit order, this round
	records []*campaign.Record // OnRecord order, this round

	// Spans: cur owns durable calls made now; entry is the serial entry in
	// flight; session roots the entries of the running session.
	cur, entry, session int64
	mark                time.Time

	resumeAt time.Time

	latencies []float64 // ms, this round

	// Totals over the measured rounds.
	cycles    []cycle
	expBody   map[string]time.Duration
	resumeSum time.Duration
}

// cycle is one serial entry's accounting; pos is its plan position.
type cycle struct {
	pos         int
	total, body time.Duration
}

func newTracker(b *bench, bodyName string, serial, disk bool) *tracker {
	t := &tracker{b: b, bodyName: bodyName, serial: serial, disk: disk, expBody: map[string]time.Duration{}}
	t.reset()
	return t
}

// reset starts a round.
func (t *tracker) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.starts = map[string]time.Time{}
	t.bodies = map[string]time.Duration{}
	t.pending, t.commits, t.records = nil, nil, nil
}

// parent is the span that owns a durable or HTTP call made now.
func (t *tracker) parent() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// within makes span id the owner of calls made until the next change.
func (t *tracker) within(id int64) {
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
}

// wrap times each entry's Entry.Run without touching what it returns.
func (t *tracker) wrap(entries []campaign.Entry) []campaign.Entry {
	out := make([]campaign.Entry, len(entries))
	for i, e := range entries {
		out[i] = e
		id, run := e.ID, e.Run
		if run == nil {
			continue
		}
		out[i].Run = func(seed uint64) campaign.Attempt {
			start := t.begin(id)
			att := run(seed)
			t.end(id, start)
			return att
		}
	}
	return out
}

func (t *tracker) begin(id string) time.Time {
	t.b.entryStarted()
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.resumeAt.IsZero() {
		t.resumeSum += now.Sub(t.resumeAt)
		t.resumeAt = time.Time{}
	}
	if _, ok := t.starts[id]; !ok {
		t.starts[id] = now
	}
	if t.serial {
		t.entry = t.b.rec.id()
		t.cur = t.entry
	}
	return now
}

func (t *tracker) end(id string, start time.Time) {
	now := time.Now()
	t.mu.Lock()
	t.bodies[id] += now.Sub(start)
	parent := t.cur
	t.mu.Unlock()
	t.b.rec.add(0, parent, t.bodyName, id, start, now)
}

// onRecord is the campaign.Config.OnRecord hook. On disk it fires before
// the record is journaled, so the timedFS reports the commit instead.
func (t *tracker) onRecord(rec *campaign.Record) {
	t.mu.Lock()
	t.records = append(t.records, rec)
	t.mu.Unlock()
	if !t.disk {
		t.commit([]string{rec.ID}, time.Now())
	}
}

// commit marks ids committed at at, in the order given.
func (t *tracker) commit(ids []string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		if start, ok := t.starts[id]; ok {
			t.latencies = append(t.latencies, float64(at.Sub(start))/1e6)
		}
		t.commits = append(t.commits, id)
		t.expBody[id] += t.bodies[id]
		if !t.serial {
			continue
		}
		t.cycles = append(t.cycles, cycle{pos: len(t.commits) - 1, total: at.Sub(t.mark), body: t.bodies[id]})
		t.b.rec.add(t.entry, t.session, "campaign.entry", id, t.mark, at)
		t.mark = at
		t.cur = t.session
	}
}

// run times one campaign session (a RunParallel call) as a span of round
// and as part of the round's measured time.
func (t *tracker) run(round int64, c *campaign.Campaign, workers int) (*campaign.Manifest, error) {
	start := time.Now()
	id := t.b.rec.id()
	t.mu.Lock()
	t.session, t.cur, t.mark = id, id, start
	t.mu.Unlock()
	var man *campaign.Manifest
	err := t.b.timed(func() (err error) {
		man, err = c.RunParallel(t.b.ctx, workers)
		return err
	})
	t.b.rec.add(id, round, "campaign.session", "", start, time.Now())
	t.within(round)
	return man, err
}

// open times campaign.New or campaign.Resume as a span of round.
func (t *tracker) open(round int64, name string, f func() (*campaign.Campaign, error)) (*campaign.Campaign, error) {
	start := time.Now()
	id := t.b.rec.id()
	t.within(id)
	c, err := f()
	t.b.rec.add(id, round, name, "", start, time.Now())
	t.within(round)
	return c, err
}

// resumeCalled marks a campaign.Resume call; the time until the next
// entry starts counts as resume time.
func (t *tracker) resumeCalled(at time.Time) {
	t.mu.Lock()
	t.resumeAt = at
	t.mu.Unlock()
}

// takeLatencies returns and forgets the round's entry latencies.
func (t *tracker) takeLatencies() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lat := t.latencies
	t.latencies = nil
	return lat
}

// round returns this round's commit order and records.
func (t *tracker) round() ([]string, []*campaign.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commits, t.records
}
