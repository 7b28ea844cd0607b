package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one host-time interval the benchmark recorded around a call
// into a layer. Times are offsets from the tracer's origin.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index of the enclosing span, -1 for a root
}

// tracer keeps spans in memory for the traced run and writes them out
// when the workload ends. A nil *tracer is the untraced run: every
// method is a no-op, and workloads install no timing hooks at all.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span whose end is filled in by close; children recorded
// in between can name it as their parent.
func (t *tracer) open(name string, start time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), end: -1, parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].end = end.Sub(t.origin)
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name string, start, end time.Time, parent int) int {
	i := t.open(name, start, parent)
	t.close(i, end)
	return i
}

// durations returns the lengths of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			ds = append(ds, s.end-s.start)
		}
	}
	return ds
}

// write stores every span as one tab-separated line: index, name,
// start and end in nanoseconds from the origin, parent index.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# index\tname\tstart_ns\tend_ns\tparent")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]time.Duration) int { return int(x[0] - y[0]) })
	var total, reach time.Duration
	reach = lo
	for _, v := range iv {
		a := max(v[0], reach)
		if v[1] > a {
			total += v[1] - a
			reach = v[1]
		}
	}
	return total
}

// quantile returns the nearest-rank q-quantile of ds (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
