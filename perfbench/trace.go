package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one replayed request share Req; Parent links a
// call to the span that caused it (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	// Src is "workload" for spans of the workload's own traced pass and
	// "sweep" for the standalone layer sweep.
	Src   string        `json:"src"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	src   string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), src: "workload"} }

// do times fn as a span named name under parent and returns its
// duration. fn receives the new span's ID so nested calls can link to
// it. A nil tracer just runs fn.
func (t *tracer) do(parent, req int32, name string, fn func(id int32)) time.Duration {
	if t == nil {
		start := time.Now()
		fn(-1)
		return time.Since(start)
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Src: t.src})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id].Start = start.Sub(t.epoch)
	t.spans[id].End = end.Sub(t.epoch)
	t.mu.Unlock()
	return end.Sub(start)
}

// record adds an already-measured interval as a root span.
func (t *tracer) record(req int32, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: -1, Req: req, Name: name,
		Src: t.src, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName groups self times by span name, taking the workload's own
// spans where the workload made that call and the sweep's otherwise.
func (t *tracer) selfByName() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	bySrc := map[string]map[string][]time.Duration{"workload": {}, "sweep": {}}
	for i, s := range t.spans {
		bySrc[s.Src][s.Name] = append(bySrc[s.Src][s.Name], self[i])
	}
	out := bySrc["sweep"]
	for name, ds := range bySrc["workload"] {
		out[name] = ds
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuShareGroups maps each *.cpu_share metric to the packages whose
// flat CPU time it sums.
var cpuShareGroups = map[string][]string{
	"evalpool.cpu_share":  {"repro/internal/evalpool"},
	"sim.cpu_share":       {"repro/internal/sim", "repro/internal/rapl", "repro/internal/nvgov", "repro/internal/perfmodel", "repro/internal/hw"},
	"profile.cpu_share":   {"repro/internal/profile", "repro/internal/coord", "repro/internal/dyncoord", "repro/internal/category"},
	"http_json.cpu_share": {"net/http", "net/textproto", "net", "encoding/json", "bufio", "internal/poll", "syscall", "internal/runtime/syscall"},
	"des.cpu_share":       {"repro/internal/des"},
}

// cpuShares sums `go tool pprof -top` flat time by package over the
// given CPU profiles and returns each group's share of the total.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	byPkg := map[string]float64{}
	total := 0.0
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 1 && fields[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			continue
		}
		fn := strings.Join(fields[5:], " ")
		byPkg[funcPackage(fn)] += flat
		total += flat
	}
	shares := map[string]float64{}
	for metric, pkgs := range cpuShareGroups {
		sum := 0.0
		for _, p := range pkgs {
			sum += byPkg[p]
		}
		if total > 0 {
			shares[metric] = sum / total
		}
	}
	return shares, nil
}

// funcPackage extracts the import path from a symbol such as
// "repro/internal/evalpool.(*Engine).evaluate".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	dir, base := "", fn
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, base = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	return dir + base
}

// traceFile names a run's output file in the output directory.
func traceFile(o options, kind string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-%s-seed%d", kind, o.workload, o.seed))
}
