package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"` // dbspd job id, shared by a request's spans
	Start  int64  `json:"start_ns"`      // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced passes run the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span over [start, end) and returns its id.
func (r *recorder) add(parent int, layer, name, job string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Job: job,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// open starts a span whose end is set later by close; children may
// reference it in between.
func (r *recorder) open(parent int, layer, name string) int {
	now := time.Now()
	return r.add(parent, layer, name, "", now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(parent int, layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(parent, layer, name, "", start, end)
	return end.Sub(start)
}

// selfTimes returns each layer's self time under root: every span's
// duration minus the union of its children's intervals.
func (r *recorder) selfTimes(root int) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]int{}
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], s.ID)
	}
	out := map[string]time.Duration{}
	var walk func(id int)
	walk = func(id int) {
		s := r.spans[id-1]
		var iv [][2]int64
		for _, k := range kids[id] {
			c := r.spans[k-1]
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
			walk(k)
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(iv))
	}
	walk(root)
	return out
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

func (r *recorder) duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// report prints root's per-layer self times, largest first, with the
// sum against the root's own duration divided by lanes (the number of
// concurrent clients under it).
func (r *recorder) report(root int, title string, lanes int) {
	self := r.selfTimes(root)
	layers := make([]string, 0, len(self))
	var sum time.Duration
	for l, d := range self {
		layers = append(layers, l)
		sum += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	wall := r.duration(root)
	logf("self time, %s (traced wall %.1f ms, %d lane(s)):", title, ms(wall), lanes)
	for _, l := range layers {
		logf("  %-12s %10.1f ms  %5.1f%%", l, ms(self[l]), 100*float64(self[l])/float64(sum))
	}
	logf("  %-12s %10.1f ms  (= %.1f ms per lane)", "sum", ms(sum), ms(sum)/float64(lanes))
}

// write dumps the spans as JSONL, one span per line, after a header
// line holding env.
func (r *recorder) write(path string, env any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"env": env})
	r.mu.Lock()
	for i := 0; err == nil && i < len(r.spans); i++ {
		err = enc.Encode(r.spans[i])
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
