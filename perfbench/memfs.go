package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// memFS is an in-memory durable.FS for micro-disk's store. The program's
// whole persistence path runs on it (journal appends, manifest saves with
// .prev banking, recovery reads and the JSON encoding behind them), with
// no host disk under it: on the host that fixed the bounds, a root ext4
// mounted with discard on a virtual disk made every rename-over cost disk
// I/O that drifted between runs. Directories are implied by the files in
// them; fsync is a no-op that the timedFS around it still counts.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return nil, notExist("open", path)
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) WriteFile(path string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append([]byte(nil), data...)
	return nil
}

// Append may grow the stored slice in place: ReadFile hands out copies.
func (m *memFS) Append(path string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append(m.files[path], data...)
	return nil
}

func (m *memFS) Sync(string) error                  { return nil }
func (m *memFS) SyncDir(string) error               { return nil }
func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) Stat(path string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.files[path]; ok {
		return memInfo{name: filepath.Base(path), size: int64(len(data))}, nil
	}
	for p := range m.files {
		if strings.HasPrefix(p, path+"/") {
			return memInfo{name: filepath.Base(path), dir: true}, nil
		}
	}
	return nil, notExist("stat", path)
}

func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]memInfo{}
	for p, data := range m.files {
		rest, ok := strings.CutPrefix(p, dir+"/")
		if !ok {
			continue
		}
		if name, _, sub := strings.Cut(rest, "/"); sub {
			seen[name] = memInfo{name: name, dir: true}
		} else {
			seen[name] = memInfo{name: name, size: int64(len(data))}
		}
	}
	if len(seen) == 0 {
		return nil, notExist("readdir", dir)
	}
	out := make([]os.DirEntry, 0, len(seen))
	for _, info := range seen {
		out = append(out, fs.FileInfoToDirEntry(info))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// memInfo is a memFS file's or directory's os.FileInfo.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }

func (i memInfo) Mode() os.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
