package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// jsonlCases are the case studies the trace workload also ingests as
// perf-script JSONL. JSONL decoding costs about a hundred times more per
// reference than CCTB, so only small streams are worth converting: these
// keep both decoders a substantial share of operation time.
var jsonlCases = []string{"kripke"}

// optimizedCases are recorded in their fixed variant too, which makes
// eleven operations a round with the seven originals and the JSONL
// stream. Latencies cluster by stream size, and a quantile that falls on
// the edge between two clusters jumps between them from run to run; with
// these eleven the median falls mid-way into the three ~2M-reference
// streams (fft, its fixed variant and tinydnn).
var optimizedCases = []string{"kripke", "symmetrization", "fft"}

// traceBench profiles recorded case-study traces instead of running the
// kernels: ProfileTrace over frame-aligned shards on parsim, then Analyze
// and WriteReport. Set-up records every original, and the fixed variants
// of optimizedCases, as CCTB and the jsonlCases as perf-script JSONL too;
// a JSONL operation first converts its file to CCTB the way `cctrace
// -jsonl` does. It is the only workload in which the decoders work;
// emission is idle, and the analysis sees shards as threads.
type traceBench struct {
	closedLoop
	cfg     config
	streams map[string]*recorded
	bytes   uint64 // CCTB bytes of the corpus
	refs    uint64 // references of the corpus
	seen    map[string][32]byte
}

// recorded is one program's stream on disk.
type recorded struct {
	prog   *workloads.Program
	period uint64 // the case study's sampling period
	cctb   string
	jsonl  string // empty unless the case is also ingested as JSONL
	sum    [32]byte
	refs   uint64
	seed   int64
}

func newTraceBench(cfg config) (bench, error) {
	b := &traceBench{cfg: cfg, streams: map[string]*recorded{}, seen: map[string][32]byte{}}
	add := func(name string, cs *workloads.CaseStudy, p *workloads.Program) error {
		r := &recorded{prog: p, period: cs.ProfilePeriod, cctb: filepath.Join(cfg.dir, name+".cctb"), seed: cfg.rng("trace/sampling/" + name).Int63()}
		size, err := recordCCTB(p, r)
		if err != nil {
			return err
		}
		b.bytes += uint64(size)
		b.refs += r.refs
		b.streams[name] = r
		b.ops = append(b.ops, op{label: "trace/cctb/" + name, run: func(tr *tracer, opID, root int) (uint64, error) {
			open := func() (io.ReadSeeker, error) { return os.Open(r.cctb) }
			return b.profileAndCheck(tr, opID, root, r, open)
		}, probe: r.probeDecode})
		return nil
	}
	for _, name := range workloads.Names() {
		cs, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		if err := add(name, cs, cs.Original); err != nil {
			return nil, err
		}
	}
	for _, name := range optimizedCases {
		cs, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		if err := add(name+"-optimized", cs, cs.Optimized); err != nil {
			return nil, err
		}
	}
	for _, name := range jsonlCases {
		r := b.streams[name]
		r.jsonl = filepath.Join(cfg.dir, name+".jsonl")
		if err := recordJSONL(r.prog, r.jsonl); err != nil {
			return nil, err
		}
		b.ops = append(b.ops, op{label: "trace/jsonl/" + name, run: func(tr *tracer, opID, root int) (uint64, error) {
			return b.profileJSONL(tr, opID, root, r)
		}})
	}
	b.order = cfg.rng("trace/order")
	return b, nil
}

// recordCCTB streams p's sequential run to r.cctb as CCTB, filling in the
// file's sha256 and reference count, and returns its size.
func recordCCTB(p *workloads.Program, r *recorded) (int64, error) {
	f, err := os.Create(r.cctb)
	if err != nil {
		return 0, err
	}
	h := sha256.New()
	tw := trace.NewTraceWriter(io.MultiWriter(f, h), 0)
	p.Run(tw)
	if err := tw.Close(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	r.refs, _ = tw.Stats()
	h.Sum(r.sum[:0])
	st, err := os.Stat(r.cctb)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// recordJSONL writes p's sequential stream to path in the shape `perf
// script` exports: one object per access, hex ip and data address.
func recordJSONL(p *workloads.Program, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	p.Run(trace.SinkFunc(func(r trace.Ref) {
		kind := "load"
		if r.Write {
			kind = "store"
		}
		fmt.Fprintf(w, `{"ip":"%#x","addr":"%#x","op":"%s"}`+"\n", r.IP, r.Addr, kind)
	}))
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (b *traceBench) options(r *recorded) core.TraceProfileOptions {
	return core.TraceProfileOptions{
		Period:   pmu.Uniform(r.period),
		Seed:     r.seed,
		Parallel: parsim.Options{Workers: b.cfg.workers},
	}
}

func (b *traceBench) profileJSONL(tr *tracer, opID, root int, r *recorded) (uint64, error) {
	var buf bytes.Buffer
	if err := tr.call("trace.ReadJSONL", root, opID, func() error {
		f, err := os.Open(r.jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		tw := trace.NewTraceWriter(&buf, 0)
		n, _, err := trace.ReadJSONL(f, tw)
		if err != nil {
			return err
		}
		tr.count("trace.jsonl_refs", float64(n))
		return tw.Close()
	}); err != nil {
		return 0, err
	}
	if err := checkSameBytes("CCTB converted from JSONL", sha256.Sum256(buf.Bytes()), r.sum); err != nil {
		return 0, err
	}
	open := func() (io.ReadSeeker, error) { return bytes.NewReader(buf.Bytes()), nil }
	return b.profileAndCheck(tr, opID, root, r, open)
}

// profileAndCheck profiles, analyzes and renders one stream. Every
// operation on a stream, from either format, must render the same report.
func (b *traceBench) profileAndCheck(tr *tracer, opID, root int, r *recorded, open func() (io.ReadSeeker, error)) (uint64, error) {
	var prof *core.Profile
	if err := tr.call("core.ProfileTrace", root, opID, func() (err error) {
		prof, err = core.ProfileTrace(r.prog.Name, open, b.options(r))
		return err
	}); err != nil {
		return 0, err
	}
	tr.count("core.profile_trace_refs", float64(prof.Refs))
	tr.count("parsim.segments", float64(len(prof.Samples)))
	tr.count("core.samples", float64(prof.SampleCount()))
	var an *core.Analysis
	if err := tr.call("core.Analyze", root, opID, func() (err error) {
		an, err = core.Analyze(prof, r.prog.Binary, r.prog.Arena, core.AnalyzeOptions{})
		return err
	}); err != nil {
		return 0, err
	}
	var rep bytes.Buffer
	if err := tr.call("core.WriteReport", root, opID, func() error {
		return core.WriteReport(&rep, an)
	}); err != nil {
		return 0, err
	}
	if prof.Refs != r.refs {
		return 0, fmt.Errorf("profiled %d refs, the recorded stream has %d", prof.Refs, r.refs)
	}
	sum := sha256.Sum256(rep.Bytes())
	if want, ok := b.seen[r.prog.Name]; ok {
		if err := checkSameBytes("report", sum, want); err != nil {
			return 0, err
		}
	}
	b.seen[r.prog.Name] = sum
	return prof.Refs, nil
}

// probeDecode times a bare TraceReader.Next pass over the stream, outside
// the operation, for the decoder's per-reference cost.
func (r *recorded) probeDecode(tr *tracer, opID int) error {
	return tr.call("trace.TraceReader", -1, opID, func() error {
		f, err := os.Open(r.cctb)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := trace.NewTraceReader(f)
		if err != nil {
			return err
		}
		var n int
		for {
			blk, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			n += blk.Len()
		}
		tr.count("trace.decoded_refs", float64(n))
		return nil
	})
}

func (b *traceBench) layers(tr *tracer, spans []span) map[string]float64 {
	st := byName(spans)
	total := func(name string) float64 {
		if v := st[name]; v != nil {
			return float64(v.total)
		}
		return 0
	}
	mean := func(name string) float64 {
		if v := st[name]; v != nil {
			return v.meanNs()
		}
		return 0
	}
	perRef := func(ns, refs float64) float64 {
		if refs == 0 {
			return 0
		}
		return ns / refs
	}
	return map[string]float64{
		"trace.cctb_decode_ns_per_ref":  perRef(total("trace.TraceReader"), tr.tally("trace.decoded_refs").sum),
		"trace.jsonl_ns_per_ref":        perRef(total("trace.ReadJSONL"), tr.tally("trace.jsonl_refs").sum),
		"trace.cctb_bytes_per_ref":      float64(b.bytes) / float64(b.refs),
		"core.profile_trace_ns_per_ref": perRef(total("core.ProfileTrace"), tr.tally("core.profile_trace_refs").sum),
		"parsim.segments":               tr.tally("parsim.segments").mean(),
		"core.analyze_ms":               mean("core.Analyze") / 1e6,
		"core.render_us":                mean("core.WriteReport") / 1e3,
		"core.samples":                  tr.tally("core.samples").mean(),
	}
}

func (b *traceBench) close() error { return os.RemoveAll(b.cfg.dir) }
