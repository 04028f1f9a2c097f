package main

import (
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
)

// timingFS is a checkpoint.FS that delegates every call — fsyncs included
// — to an inner filesystem and records, from outside the training driver,
// when each checkpoint became durable (its rename followed by the
// directory fsync), how long fsyncs took, and how many bytes were written.
type timingFS struct {
	inner checkpoint.FS
	start time.Time

	mu      sync.Mutex
	pending []int
	durable map[int]time.Duration // iteration → offset from start
	fsync   time.Duration
	bytes   int64
}

func newTimingFS(inner checkpoint.FS, start time.Time) *timingFS {
	return &timingFS{inner: inner, start: start, durable: map[int]time.Duration{}}
}

func (t *timingFS) MkdirAll(dir string) error { return t.inner.MkdirAll(dir) }

func (t *timingFS) Create(name string) (checkpoint.File, error) {
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Open(name string) (io.ReadCloser, error) { return t.inner.Open(name) }

func (t *timingFS) Rename(oldpath, newpath string) error {
	if err := t.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	if it, ok := checkpoint.ParseFileName(filepath.Base(newpath)); ok {
		t.mu.Lock()
		t.pending = append(t.pending, it)
		t.mu.Unlock()
	}
	return nil
}

func (t *timingFS) Remove(name string) error { return t.inner.Remove(name) }

func (t *timingFS) ReadDir(dir string) ([]string, error) { return t.inner.ReadDir(dir) }

func (t *timingFS) SyncDir(dir string) error {
	s := time.Now()
	err := t.inner.SyncDir(dir)
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fsync += now.Sub(s)
	if err != nil {
		return err
	}
	for _, it := range t.pending {
		if _, seen := t.durable[it]; !seen {
			t.durable[it] = now.Sub(t.start)
		}
	}
	t.pending = t.pending[:0]
	return nil
}

// durableAt returns when iteration it's checkpoint became durable.
func (t *timingFS) durableAt(it int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.durable[it]
	return d, ok
}

// iterationDurations returns the durable-to-durable interval of every
// iteration 1..n: the wall time one iteration, its checkpoint included,
// held the run for. The first interval starts at the training start.
func (t *timingFS) iterationDurations(n int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, 0, n)
	var prev time.Duration
	for it := 1; it <= n; it++ {
		d, ok := t.durable[it]
		if !ok {
			break
		}
		out = append(out, (d - prev).Seconds())
		prev = d
	}
	return out
}

func (t *timingFS) fsyncAndBytes() (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fsync, t.bytes
}

type timingFile struct {
	checkpoint.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	s := time.Now()
	err := f.File.Sync()
	d := time.Since(s)
	f.fs.mu.Lock()
	f.fs.fsync += d
	f.fs.mu.Unlock()
	return err
}
