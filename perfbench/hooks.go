package main

// hooks.go holds everything the benchmark installs at the hooks the program
// already offers its callers: the wrapped campaign.Entry.Run, a durable.FS
// that times and counts I/O, an http.RoundTripper that times fabric
// requests, and the in-memory span recorder they report to. Nothing here
// changes what the program computes; the workloads check that.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
)

// span is one traced interval: a call into a layer, made from the
// benchmark's side of a hook. Times are nanoseconds since the recorder
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how an untraced run skips every span.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span id, so children can name a parent still open.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records a finished span under a reserved id (0 reserves one).
func (r *recorder) add(id, parent int64, name, label string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Label: label,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
	return id
}

// write dumps every span as one JSON file.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durations lists the durations of the spans with a name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover. Children may overlap (two fabric drivers issue
// requests at once), so coverage is the union of their intervals.
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// fsCounts is the durable layer's work: fsyncs of files and directories,
// renames, and bytes moved. mergedBytes is the part of writtenBytes that
// went to the fabric's merged manifest and its journal.
type fsCounts struct {
	syncs, renames, writtenBytes, readBytes, mergedBytes int64
}

// fsStats sums fsCounts over every timedFS of a run.
type fsStats struct {
	mu sync.Mutex
	c  fsCounts
}

func (s *fsStats) add(f func(*fsCounts)) {
	s.mu.Lock()
	f(&s.c)
	s.mu.Unlock()
}

func (s *fsStats) snapshot() fsCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// syncFree is the real filesystem with fsync left out: files, renames and
// journal appends reach the page cache as they would on disk, but Sync and
// SyncDir return at once. The host disk's fsync latency drifts from run to
// run by more than any bound the benchmark may set; the timedFS wrapped
// around it still counts every fsync the program asks for.
type syncFree struct{ durable.FS }

func (syncFree) Sync(string) error    { return nil }
func (syncFree) SyncDir(string) error { return nil }

// timedFS is the durable.FS the benchmark hands to campaign, labd and
// fabric. It counts bytes, fsyncs and renames, records a span per call when
// tracing, and reports the commit points of one manifest: a record is
// durable once its journal append is fsynced (campaign's Checkpointer
// appends and syncs each record before it rewrites the manifest, and
// recovery folds the journal).
type timedFS struct {
	durable.FS
	rec    *recorder
	stats  *fsStats
	parent func() int64
	// manifest and committed are set before a run starts and not changed
	// while it runs; manifest "" turns commit reporting off.
	manifest  string
	merged    bool // count the manifest's bytes as the fabric's merged manifest
	committed func(ids []string, at time.Time)
	mu        sync.Mutex
	pending   []string // journaled, not yet fsynced
}

func newTimedFS(base durable.FS, rec *recorder, stats *fsStats, parent func() int64) *timedFS {
	return &timedFS{FS: base, rec: rec, stats: stats, parent: parent}
}

// watch points commit reporting at a manifest path.
func (f *timedFS) watch(manifest string, committed func([]string, time.Time)) {
	f.manifest, f.committed = manifest, committed
}

func (f *timedFS) span(name, path string, start time.Time) {
	if f.rec != nil {
		f.rec.add(0, f.parent(), name, path, start, time.Now())
	}
}

// ours reports whether path is the watched manifest, its journal, or an
// in-flight write of either.
func (f *timedFS) ours(path string) bool {
	p := strings.TrimSuffix(strings.TrimSuffix(path, durable.TmpSuffix), campaign.WALSuffix)
	return f.manifest != "" && p == f.manifest
}

func (f *timedFS) ReadFile(path string) ([]byte, error) {
	t := time.Now()
	data, err := f.FS.ReadFile(path)
	f.span("durable.read", path, t)
	f.stats.add(func(s *fsCounts) { s.readBytes += int64(len(data)) })
	return data, err
}

func (f *timedFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	t := time.Now()
	err := f.FS.WriteFile(path, data, perm)
	f.span("durable.write", path, t)
	f.countWrite(path, len(data))
	return err
}

func (f *timedFS) Append(path string, data []byte, perm os.FileMode) error {
	t := time.Now()
	err := f.FS.Append(path, data, perm)
	f.span("durable.write", path, t)
	f.countWrite(path, len(data))
	if err == nil && f.committed != nil && path == campaign.WALPath(f.manifest) {
		if id, ok := journalID(data); ok {
			f.mu.Lock()
			f.pending = append(f.pending, id)
			f.mu.Unlock()
		}
	}
	return err
}

func (f *timedFS) countWrite(path string, n int) {
	merged := f.merged && f.ours(path)
	f.stats.add(func(s *fsCounts) {
		s.writtenBytes += int64(n)
		if merged {
			s.mergedBytes += int64(n)
		}
	})
}

func (f *timedFS) Sync(path string) error {
	t := time.Now()
	err := f.FS.Sync(path)
	f.span("durable.sync", path, t)
	f.stats.add(func(s *fsCounts) { s.syncs++ })
	if err == nil && f.committed != nil && path == campaign.WALPath(f.manifest) {
		f.mu.Lock()
		ids := f.pending
		f.pending = nil
		f.mu.Unlock()
		if len(ids) > 0 {
			f.committed(ids, time.Now())
		}
	}
	return err
}

func (f *timedFS) SyncDir(dir string) error {
	t := time.Now()
	err := f.FS.SyncDir(dir)
	f.span("durable.sync", dir, t)
	f.stats.add(func(s *fsCounts) { s.syncs++ })
	return err
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	t := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.span("durable.rename", newpath, t)
	f.stats.add(func(s *fsCounts) { s.renames++ })
	return err
}

// journalID pulls the entry id out of one journal line, "cpwal1 <crc>
// {"id":"<id>",...}": a record's JSON starts with its id field.
func journalID(line []byte) (string, bool) {
	const key = `{"id":"`
	s := string(line)
	i := strings.Index(s, key)
	if i < 0 {
		return "", false
	}
	s = s[i+len(key):]
	j := strings.IndexByte(s, '"')
	if j < 0 {
		return "", false
	}
	return s[:j], true
}

// httpStats counts the fabric's requests.
type httpStats struct {
	requests atomic.Int64
}

// timedTransport is the fabric's http.RoundTripper: it counts requests and,
// when tracing, records one span per request from send until the response
// body is closed.
type timedTransport struct {
	base   *http.Transport
	rec    *recorder
	stats  *httpStats
	parent func() int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	t.stats.requests.Add(1)
	resp, err := t.base.RoundTrip(req)
	if t.rec == nil {
		return resp, err
	}
	name := "http." + strings.ToLower(req.Method)
	if err != nil {
		t.rec.add(0, t.parent(), name, req.URL.Path, start, time.Now())
		return resp, err
	}
	var once sync.Once
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		once.Do(func() { t.rec.add(0, t.parent(), name, req.URL.Path, start, time.Now()) })
	}}
	return resp, nil
}

// timedBody ends a request's span when its body is closed.
type timedBody struct {
	io.ReadCloser
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}
