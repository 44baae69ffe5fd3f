package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, -1 for a root. Roots named
// "op" are operations; other roots are probes run beside the operations
// (a decode-only or emit-only pass) and stay out of the layer budget.
type span struct {
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's calls go into: the prefix of its name.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tally accumulates a count reported at a layer boundary, such as the
// samples a profile produced or the candidates the advisor simulated.
type tally struct {
	sum, max float64
	n        int
}

func (t tally) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// tracer keeps spans and tallies in memory for the traced run; the
// untraced run uses a disabled tracer, whose methods return at once.
// Methods are safe for concurrent use: the advisor calls back from sweep
// workers and the service workload records from two goroutines.
type tracer struct {
	on    bool
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	tallies map[string]tally
	ops     int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), tallies: map[string]tally{}}
}

// now is the tracer's clock: monotonic nanoseconds since it was made.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores a finished span and returns its index, or -1 when
// tracing is off.
func (t *tracer) record(name string, parent, op int, start, end int64) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// recordOp stores the root span of a new operation and returns the
// operation id and the span index. An end of -1 leaves the span open for
// end; operations whose timeline is only known once they complete pass
// both ends.
func (t *tracer) recordOp(label string, start, end int64) (op, id int) {
	t.mu.Lock()
	op = t.ops
	t.ops++
	t.mu.Unlock()
	id = t.record("op", -1, op, start, end)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].Label = label
		t.mu.Unlock()
	}
	return op, id
}

func (t *tracer) beginOp(label string) (op, id int) { return t.recordOp(label, t.now(), -1) }

// begin opens a span that end closes; children name it as their parent.
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	return t.record(name, parent, op, t.now(), -1)
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(name string, parent, op int, fn func() error) error {
	id := t.begin(name, parent, op)
	err := fn()
	t.end(id)
	return err
}

// count adds one observation of a named count.
func (t *tracer) count(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	c := t.tallies[name]
	c.sum += v
	if c.n == 0 || v > c.max {
		c.max = v
	}
	c.n++
	t.tallies[name] = c
	t.mu.Unlock()
}

func (t *tracer) tally(name string) tally {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tallies[name]
}

// snapshot returns a copy of the spans, once every span has ended.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats summarises the spans of one name.
type spanStats struct {
	n     int
	total int64 // ns
	durs  []float64
}

func (s spanStats) meanNs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n)
}

func byName(spans []span) map[string]*spanStats {
	m := map[string]*spanStats{}
	for _, s := range spans {
		st := m[s.Name]
		if st == nil {
			st = &spanStats{}
			m[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.durs = append(st.durs, float64(s.dur()))
	}
	return m
}

// budgetRow is one layer's share of operation wall time.
type budgetRow struct {
	Layer  string
	Spans  int
	SelfMs float64
	Pct    float64 // of operation wall time
}

// unexplained is the budget row for operation time no layer span covers:
// the benchmark's own code between calls, and waits it cannot attribute.
const unexplained = "(unexplained)"

// layerBudget splits the wall time of every operation into the self time
// of each layer — a span's duration minus the part of it that its child
// spans cover — and leaves the operations' own self time as the
// unexplained remainder. The rows sum to the operations' wall time.
func layerBudget(spans []span) (rows []budgetRow, opWallNs int64) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]int64{}
	count := map[string]int{}
	var walk func(i int, layer string)
	walk = func(i int, layer string) {
		s := spans[i]
		self[layer] += s.dur() - covered(spans, children[i], s)
		count[layer]++
		for _, c := range children[i] {
			walk(c, spans[c].layer())
		}
	}
	for i, s := range spans {
		if s.Parent < 0 && s.Name == "op" {
			opWallNs += s.dur()
			walk(i, unexplained)
		}
	}
	for layer, ns := range self {
		row := budgetRow{Layer: layer, Spans: count[layer], SelfMs: float64(ns) / 1e6}
		if layer == unexplained {
			row.Spans = 0
		}
		if opWallNs > 0 {
			row.Pct = 100 * float64(ns) / float64(opWallNs)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].Layer == unexplained) != (rows[j].Layer == unexplained) {
			return rows[j].Layer == unexplained
		}
		return rows[i].SelfMs > rows[j].SelfMs
	})
	return rows, opWallNs
}

// covered returns how much of parent's interval the union of the child
// intervals covers; children may overlap when they ran concurrently.
func covered(spans []span, kids []int, parent span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

func writeBudget(w io.Writer, rows []budgetRow, opWallNs int64) {
	fmt.Fprintf(w, "layer budget (self time against %.1f ms of operation wall time):\n", float64(opWallNs)/1e6)
	fmt.Fprintf(w, "  %-14s %8s %12s %8s\n", "layer", "spans", "self ms", "% wall")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %8d %12.1f %8.1f\n", r.Layer, r.Spans, r.SelfMs, r.Pct)
	}
}

// dumpSpans writes the spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
