package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/staticconf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// session is the paper's §6 diagnose-and-fix loop, one case study per
// operation, from one client: profile the original, analyze and render
// it, classify its spec analytically, let the advisor cascade pick a pad,
// and re-profile the padded kernel to confirm the fix. It is the CLI
// user's path and the only workload that runs the advisor; trace decode
// and the daemon stay idle.
type session struct {
	closedLoop
	cfg  config
	seen map[string]sessionOutcome
	// tierNs is the time the advisor's own obs phases gave each static
	// tier during the traced phase — the one split the callbacks cannot
	// see from outside.
	tierNs map[string]int64
}

// sessionCase is one (case study, thread count) pair. A round runs every
// pair once — each parallel case at one and two threads, ADI sequential —
// so any number of rounds carries the same thread mix whatever the seed.
type sessionCase struct {
	cs      *workloads.CaseStudy
	threads int
	refs    uint64 // references the original emits at this thread count
	seed    int64  // sampling seed
}

func newSession(cfg config) (bench, error) {
	s := &session{cfg: cfg, seen: map[string]sessionOutcome{}}
	for _, name := range workloads.Names() {
		cs, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		seed := cfg.rng("session/sampling/" + name).Int63()
		threads := []int{1}
		if cs.Parallel {
			threads = append(threads, cfg.workers)
		}
		for _, t := range threads {
			// The corpus: one emission pass per pair, which also fills
			// the original's lazy value arrays.
			c := &sessionCase{cs: cs, threads: t, refs: countRefs(cs.Original, t), seed: seed}
			s.ops = append(s.ops, op{label: fmt.Sprintf("session/%s/t%d", name, t), run: func(tr *tracer, opID, root int) (uint64, error) {
				return s.diagnose(tr, opID, root, c)
			}, probe: c.probe})
		}
	}
	s.order = cfg.rng("session/order")
	return s, nil
}

// countRefs is how many references p emits over all threads of a run
// with the given thread count.
func countRefs(p *workloads.Program, threads int) uint64 {
	var n trace.Counter
	for tid := 0; tid < threads; tid++ {
		p.RunThread(tid, threads, &n)
	}
	return n.Total()
}

func (s *session) diagnose(tr *tracer, opID, root int, c *sessionCase) (uint64, error) {
	cs, threads := c.cs, c.threads
	popts := core.ProfileOptions{Period: pmu.Uniform(cs.ProfilePeriod), Seed: c.seed, Threads: threads, NoTime: true}
	var out sessionOutcome

	// 1. Profile the original, analyze it and render the report.
	prof, an, report, err := profileReport(tr, opID, root, cs.Original, popts)
	if err != nil {
		return 0, err
	}
	if prof.Refs != c.refs {
		return 0, fmt.Errorf("profiled %d refs, the kernel emits %d", prof.Refs, c.refs)
	}
	out.origConflict = an.Conflict
	out.report = sha256.Sum256(report)
	refs := prof.Refs

	// 2. The analytic tier on the unpadded layout's spec.
	var ar *analytic.Report
	spec := cs.PadBuilder(0).Spec
	if err := tr.call("analytic.Analyze", root, opID, func() (err error) {
		ar, err = analytic.Analyze(spec, mem.L1Default(), analytic.Options{})
		return err
	}); err != nil {
		return 0, err
	}
	out.analyticConflict = ar.Conflict

	// 3. The advisor cascade picks a pad.
	res, err := s.recommend(tr, opID, root, cs)
	if err != nil {
		return 0, err
	}
	out.pad = res.Best.Pad

	// 4. Re-profile the padded kernel to confirm the fix.
	var fixed *workloads.Program
	tr.call("workloads.PadBuilder", root, opID, func() error {
		fixed = cs.PadBuilder(res.Best.Pad)
		return nil
	})
	prof2, an2, report2, err := profileReport(tr, opID, root, fixed, popts)
	if err != nil {
		return 0, err
	}
	out.fixConflict = an2.Conflict
	out.fixReport = sha256.Sum256(report2)
	refs += prof2.Refs

	key := fmt.Sprintf("%s/threads=%d/seed=%d", cs.Name, threads, c.seed)
	prev, repeat := s.seen[key]
	if err := checkSession(out, prev, repeat); err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	s.seen[key] = out
	return refs, nil
}

// profileReport runs the online and offline phases and renders the
// report, one span per layer call.
func profileReport(tr *tracer, opID, root int, p *workloads.Program, popts core.ProfileOptions) (*core.Profile, *core.Analysis, []byte, error) {
	var prof *core.Profile
	if err := tr.call("core.ProfileProgram", root, opID, func() (err error) {
		prof, err = core.ProfileProgram(p, popts)
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	tr.count("core.samples", float64(prof.SampleCount()))
	var an *core.Analysis
	if err := tr.call("core.Analyze", root, opID, func() (err error) {
		an, err = core.Analyze(prof, p.Binary, p.Arena, core.AnalyzeOptions{})
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	var b bytes.Buffer
	if err := tr.call("core.WriteReport", root, opID, func() error {
		return core.WriteReport(&b, an)
	}); err != nil {
		return nil, nil, nil, err
	}
	return prof, an, b.Bytes(), nil
}

// recommend runs the advisor cascade. Traced, it wraps the two callbacks
// RecommendPad takes to split its time from outside: everything before
// the first candidate build is the static tiers (analytic, then
// staticconf, with the spec builds they ask for), everything after is
// simulation of the surviving candidates.
func (s *session) recommend(tr *tracer, opID, root int, cs *workloads.CaseStudy) (advisor.Result, error) {
	opts := advisor.Options{Tiers: advisor.Cascade(), Spec: cs.SpecBuilder(), Workers: s.cfg.workers}
	build := cs.PadBuilder
	var firstBuild atomic.Int64
	type interval struct{ start, end int64 }
	var specBuilds []interval
	if tr.on {
		build = func(pad uint64) *workloads.Program {
			firstBuild.CompareAndSwap(0, tr.now())
			return cs.PadBuilder(pad)
		}
		// tierPrune asks for specs from the calling goroutine, before
		// any candidate is built, so specBuilds needs no lock.
		opts.Spec = func(pad uint64) *staticconf.Spec {
			t0 := tr.now()
			sp := cs.PadBuilder(pad).Spec
			specBuilds = append(specBuilds, interval{t0, tr.now()})
			return sp
		}
	}
	id := tr.begin("advisor.RecommendPad", root, opID)
	res, err := advisor.RecommendPad(build, opts)
	tr.end(id)
	if err != nil || !tr.on {
		return res, err
	}
	rec := tr.snapshot()[id]
	split := firstBuild.Load()
	if split == 0 {
		split = rec.End
	}
	tiers := tr.record("advisor.tiers", id, opID, rec.Start, split)
	for _, b := range specBuilds {
		tr.record("workloads.SpecBuilder", tiers, opID, b.start, b.end)
	}
	tr.record("advisor.simulate", id, opID, split, rec.End)
	total := len(res.Candidates) + len(res.Pruned)
	tr.count("advisor.sims", float64(len(res.Candidates)))
	tr.count("advisor.pruned_analytic", float64(len(res.PrunedAnalytic)))
	tr.count("advisor.pruned_static", float64(len(res.PrunedStatic)))
	tr.count("advisor.pruned", float64(len(res.Pruned)))
	tr.count("advisor.candidates", float64(total))
	return res, nil
}

// probe times the two layers ProfileProgram hides, on the same program
// outside the operation: emission alone (RunThread into trace.Discard)
// and emission driving one sampler (RunThread into a pmu.Sampler).
func (c *sessionCase) probe(tr *tracer, opID int) error {
	p := c.cs.Original
	tr.call("workloads.RunThread", -1, opID, func() error {
		p.RunThread(0, 1, trace.Discard)
		return nil
	})
	smp := pmu.NewSampler(pmu.Config{Geom: mem.L1Default(), Period: pmu.Uniform(c.cs.ProfilePeriod), Seed: c.seed})
	tr.call("pmu.Sampler", -1, opID, func() error {
		p.RunThread(0, 1, smp)
		return nil
	})
	tr.count("probe.refs", float64(smp.Refs))
	return nil
}

func (s *session) layers(tr *tracer, spans []span) map[string]float64 {
	st := byName(spans)
	get := func(name string) *spanStats {
		if v := st[name]; v != nil {
			return v
		}
		return &spanStats{}
	}
	m := map[string]float64{}
	if refs := tr.tally("probe.refs").sum; refs > 0 {
		emit := float64(get("workloads.RunThread").total) / refs
		prof := float64(get("pmu.Sampler").total) / refs
		m["workloads.emit_ns_per_ref"] = emit
		m["pmu.profile_ns_per_ref"] = prof
		m["pmu.self_ns_per_ref"] = prof - emit
	}
	m["core.analyze_ms"] = get("core.Analyze").meanNs() / 1e6
	m["core.render_us"] = get("core.WriteReport").meanNs() / 1e3
	m["core.samples"] = tr.tally("core.samples").mean()
	m["analytic.analyze_us"] = get("analytic.Analyze").meanNs() / 1e3
	m["advisor.recommend_ms"] = get("advisor.RecommendPad").meanNs() / 1e6
	m["advisor.tier_ms"] = get("advisor.tiers").meanNs() / 1e6
	if n := get("advisor.RecommendPad").n; n > 0 {
		m["advisor.analytic_tier_ms"] = float64(s.tierNs["advisor/analytic"]) / 1e6 / float64(n)
		m["advisor.static_tier_ms"] = float64(s.tierNs["advisor/static"]) / 1e6 / float64(n)
	}
	if sims := tr.tally("advisor.sims"); sims.sum > 0 {
		m["advisor.ms_per_sim"] = float64(get("advisor.simulate").total) / 1e6 / sims.sum
	}
	m["advisor.sims"] = tr.tally("advisor.sims").mean()
	m["advisor.pruned_analytic"] = tr.tally("advisor.pruned_analytic").mean()
	m["advisor.pruned_static"] = tr.tally("advisor.pruned_static").mean()
	if cands := tr.tally("advisor.candidates").sum; cands > 0 {
		m["advisor.prune_ratio"] = tr.tally("advisor.pruned").sum / cands
	}
	return m
}

func (s *session) measure(d time.Duration, tr *tracer) *phase {
	before := obs.Default.Snapshot().Phases
	ph := s.closedLoop.measure(d, tr)
	after := obs.Default.Snapshot().Phases
	s.tierNs = map[string]int64{}
	for _, name := range []string{"advisor/analytic", "advisor/static"} {
		s.tierNs[name] = after[name].TotalNs - before[name].TotalNs
	}
	return ph
}

func (s *session) close() error { return nil }
