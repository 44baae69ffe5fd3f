package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/ccprofd"
	"repro/internal/workloads"
)

// service runs the ccprofd daemon in-process — the library's New and
// Handler on a loopback listener, its data dir on local disk — and offers
// it an open loop of jobs from one process. One connection POSTs jobs on
// a fixed schedule; a second watches their states, fetches and verifies
// results, and now and then reads GET /jobs and /metrics. It is the only
// workload that passes through admission, the fsynced journal, the queue
// and the re-hashing artifact store; cheap jobs keep the daemon's own
// overhead a visible share of latency.
type service struct {
	cfg    config
	d      *ccprofd.Daemon
	srv    *http.Server
	served chan error
	base   string
	submit *http.Client
	watch  *http.Client

	cheap  []jobSpec         // the cheap profile jobs of one block of the mix
	other  []jobSpec         // its heavy profile and advise jobs
	order  *rand.Rand        // shuffles each block
	refs   map[string]uint64 // expected references per profile job, from set-up
	hashes map[string]string // artifact of every pinned job seen so far
}

// jobSpec is one job of the mix; key names its pinned inputs when repeats
// must reproduce the same artifact.
type jobSpec struct {
	spec ccprofd.Spec
	key  string
}

// The mix: the cheap profile jobs once per block (a seed pinned per job), the heavy case studies once each with seeds the daemon
// derives, and two advisor sweeps — 21 jobs. Each block holds the same
// jobs; the seed shuffles them.
//
// Where the expensive jobs fall decides how long cheap ones queue behind
// them, so the slots stay fixed — an expensive job every fourth arrival —
// and the seed only picks which job fills each slot. Runs with different
// seeds then offer the same load over time.
//
// The median job must sit inside one kind's cluster of latencies, not on
// the gap between two, or it jumps between them from run to run. Eight
// faster jobs (kripke, symmetrization) and nine slower ones (fft, the
// heavy profiles, the sweeps) put it among the four tinydnn jobs, which
// are therefore all alike: the original at one thread, four seeds (the
// fixed variant and a second thread each run faster).
var (
	cheapProfile = []struct {
		workload string
		variants []string
		threads  []int
		seeds    int
	}{
		{"kripke", bothVariants, []int{1, 2}, 1},
		{"symmetrization", bothVariants, []int{1, 2}, 1},
		{"fft", bothVariants, []int{1, 2}, 1},
		{"tinydnn", []string{"original"}, []int{1}, 4},
	}
	bothVariants = []string{"original", "optimized"}
	heavyProfile = []string{"himeno", "adi", "nw"}
	adviseJobs   = []string{"symmetrization", "tinydnn"}
)

func newService(cfg config) (bench, error) {
	s := &service{cfg: cfg, refs: map[string]uint64{}, hashes: map[string]string{}}
	pin := cfg.rng("service/seeds")
	for _, c := range cheapProfile {
		for _, variant := range c.variants {
			for _, threads := range c.threads {
				for i := 0; i < c.seeds; i++ {
					sp := ccprofd.Spec{Kind: ccprofd.KindProfile, Workload: c.workload, Variant: variant, Threads: threads, Seed: pin.Int63()}
					s.cheap = append(s.cheap, jobSpec{spec: sp, key: fmt.Sprintf("profile/%s/%s/t%d/s%d", c.workload, variant, threads, sp.Seed)})
				}
			}
		}
	}
	for _, name := range heavyProfile {
		s.other = append(s.other, jobSpec{spec: ccprofd.Spec{Kind: ccprofd.KindProfile, Workload: name, Variant: "original", Threads: 1}})
	}
	for _, name := range adviseJobs {
		s.other = append(s.other, jobSpec{spec: ccprofd.Spec{Kind: ccprofd.KindAdvise, Workload: name}, key: "advise/" + name})
	}
	s.order = cfg.rng("service/order")

	// The corpus: the reference count of every profile job, from one
	// emission pass per (workload, variant, threads). Each profile
	// artifact must report exactly this many references.
	for _, j := range append(s.cheap, s.other...) {
		if j.spec.Kind != ccprofd.KindProfile {
			continue
		}
		n, err := specRefs(j.spec)
		if err != nil {
			return nil, err
		}
		s.refs[refsKey(j.spec)] = n
	}

	d, err := ccprofd.New(ccprofd.Options{DataDir: cfg.dir, Workers: cfg.workers, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Drain()
		return nil, err
	}
	s.d, s.base = d, "http://"+ln.Addr().String()
	s.srv = &http.Server{Handler: d.Handler()}
	s.served = make(chan error, 1)
	d.Start()
	go func() { s.served <- s.srv.Serve(ln) }()
	s.submit = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	s.watch = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return s, nil
}

// block returns the next block of the mix in arrival order.
func (s *service) block() []jobSpec {
	cheap := s.order.Perm(len(s.cheap))
	other := s.order.Perm(len(s.other))
	out := make([]jobSpec, 0, len(cheap)+len(other))
	for len(cheap)+len(other) > 0 {
		if len(out)%4 == 0 && len(other) > 0 || len(cheap) == 0 {
			out = append(out, s.other[other[0]])
			other = other[1:]
			continue
		}
		out = append(out, s.cheap[cheap[0]])
		cheap = cheap[1:]
	}
	return out
}

func refsKey(sp ccprofd.Spec) string {
	return fmt.Sprintf("%s/%s/t%d", sp.Workload, sp.Variant, sp.Threads)
}

func specRefs(sp ccprofd.Spec) (uint64, error) {
	cs, err := workloads.Get(sp.Workload)
	if err != nil {
		return 0, err
	}
	p := cs.Original
	if sp.Variant == "optimized" {
		p = cs.Optimized
	}
	return countRefs(p, max(sp.Threads, 1)), nil
}

// job is one offered job's timeline, in tracer nanoseconds.
type job struct {
	jobSpec
	due, sent, accepted int64
	running, done       int64 // first watch that saw the state; 0 if none did
	fetch, fetched      int64
	id                  string
	status              int
	err                 error
}

// warm runs one block closed-loop: each job is submitted when the last
// one's result is in.
func (s *service) warm(tr *tracer) *phase {
	ph := &phase{}
	for _, js := range s.block() {
		j := &job{jobSpec: js}
		s.post(tr, j)
		ph.attempted++
		if j.err != nil {
			ph.fail("warm-up %s: %v", j.spec.Workload, j.err)
			continue
		}
		pending := map[string]*job{j.id: j}
		for len(pending) > 0 {
			s.poll(tr, pending, ph)
			time.Sleep(time.Millisecond)
		}
	}
	return ph
}

// measure offers jobs at cfg.rate for d, then waits for every accepted
// job to finish. Latency runs from each job's due time to the end of its
// result fetch, so a stall is charged to every job it delays.
func (s *service) measure(d time.Duration, tr *tracer) *phase {
	n := int(d.Seconds() * s.cfg.rate)
	var jobs []*job
	for len(jobs) < n {
		for _, js := range s.block() {
			jobs = append(jobs, &job{jobSpec: js})
		}
	}
	jobs = jobs[:n]
	start := tr.now()
	for i, j := range jobs {
		j.due = start + int64(float64(i)/s.cfg.rate*1e9)
	}

	// The channel holds every job, so the submitter never waits on the
	// watcher.
	accepted := make(chan *job, len(jobs))
	go func() {
		defer close(accepted)
		for _, j := range jobs {
			if wait := j.due - tr.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			s.post(tr, j)
			accepted <- j
		}
	}()

	ph := &phase{}
	pending := map[string]*job{}
	giveUp := start + int64(d) + int64(time.Minute)
	lastList := start
	open := true
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			j, ok := <-accepted
			if !ok {
				break
			}
			s.admit(tr, j, pending, ph)
		}
	drain:
		for open {
			select {
			case j, ok := <-accepted:
				if !ok {
					open = false
					break drain
				}
				s.admit(tr, j, pending, ph)
			default:
				break drain
			}
		}
		s.poll(tr, pending, ph)
		if now := tr.now(); now-lastList > int64(250*time.Millisecond) {
			lastList = now
			s.listAndMetrics(tr, ph)
		}
		if tr.now() > giveUp {
			for id, j := range pending {
				ph.fail("job %s (%s %s) did not finish", id, j.spec.Kind, j.spec.Workload)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	for open {
		if _, ok := <-accepted; !ok {
			open = false
		}
	}

	var last int64
	for _, j := range jobs {
		if j.err == nil && j.fetched > 0 {
			ph.latMs = append(ph.latMs, float64(j.fetched-j.due)/1e6)
			last = max(last, j.fetched)
			s.record(tr, j)
		}
	}
	ph.elapsed = time.Duration(last - start)
	return ph
}

// admit counts an offered job and starts watching it if it was accepted.
func (s *service) admit(tr *tracer, j *job, pending map[string]*job, ph *phase) {
	ph.attempted++
	if j.err != nil {
		if j.status == http.StatusTooManyRequests || j.status == http.StatusServiceUnavailable {
			tr.count("ccprofd.refused", 1)
			ph.fail("job refused with %d", j.status)
		} else {
			ph.fail("submitting %s %s: %v", j.spec.Kind, j.spec.Workload, j.err)
		}
		return
	}
	pending[j.id] = j
}

// post submits one job and fills in its id, or its error.
func (s *service) post(tr *tracer, j *job) {
	body, err := json.Marshal(j.spec)
	if err != nil {
		j.err = err
		return
	}
	j.sent = tr.now()
	resp, err := s.submit.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.accepted = tr.now()
	j.status = resp.StatusCode
	if err != nil {
		j.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		j.err = fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	var acc ccprofd.Job
	if err := json.Unmarshal(data, &acc); err != nil {
		j.err = err
		return
	}
	j.id = acc.ID
}

// poll reads the state of every pending job once, and fetches and checks
// the result of each that is done.
func (s *service) poll(tr *tracer, pending map[string]*job, ph *phase) {
	ids := make([]string, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	queued := 0
	for _, id := range ids {
		j := pending[id]
		var st ccprofd.Job
		if err := s.getJSON("/jobs/"+id, &st); err != nil {
			j.err = err
			ph.fail("watching %s: %v", id, err)
			delete(pending, id)
			continue
		}
		now := tr.now()
		switch st.State {
		case ccprofd.StateQueued:
			queued++
			continue
		case ccprofd.StateRunning:
			if j.running == 0 {
				j.running = now
			}
			continue
		case ccprofd.StateFailed:
			j.err = fmt.Errorf("job failed (%s): %s", st.FailKind, st.Error)
		case ccprofd.StateDone:
			j.done = now
			j.err = s.fetch(tr, j, st)
		}
		delete(pending, id)
		if j.err != nil {
			ph.fail("%s %s %s: %v", id, j.spec.Kind, j.spec.Workload, j.err)
			continue
		}
		if j.spec.Kind == ccprofd.KindProfile {
			ph.refs += s.refs[refsKey(j.spec)]
		}
	}
	tr.count("ccprofd.queued_seen", float64(queued))
}

// fetch reads a done job's artifact and checks it: its sha256 must be the
// one the daemon recorded, a pinned job must repeat its earlier artifact,
// and a profile must report the references the corpus says it has.
func (s *service) fetch(tr *tracer, j *job, st ccprofd.Job) error {
	j.fetch = tr.now()
	resp, err := s.watch.Get(s.base + "/jobs/" + j.id + "/result")
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.fetched = tr.now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET result: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := checkArtifact(data, st.Artifact, resp.Header.Get("X-Artifact-Sha256")); err != nil {
		return err
	}
	if j.key != "" {
		if err := checkRepeatHash(s.hashes, j.key, st.Artifact); err != nil {
			return err
		}
	}
	if j.spec.Kind == ccprofd.KindProfile {
		return checkProfileRefs(data, s.refs[refsKey(j.spec)])
	}
	return nil
}

// checkProfileRefs requires a profile artifact's first line to report the
// reference count of the job's workload.
func checkProfileRefs(artifact []byte, want uint64) error {
	line, _, _ := bytes.Cut(artifact, []byte("\n"))
	_, rest, ok := bytes.Cut(line, []byte(": "))
	var got uint64
	if !ok {
		return fmt.Errorf("profile artifact starts %q", line)
	}
	if _, err := fmt.Sscanf(string(rest), "%d refs", &got); err != nil {
		return fmt.Errorf("profile artifact starts %q: %v", line, err)
	}
	if got != want {
		return fmt.Errorf("profile reports %d refs, the workload emits %d", got, want)
	}
	return nil
}

func (s *service) getJSON(path string, v any) error {
	resp, err := s.watch.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// listAndMetrics reads the job list and the metrics snapshot, as an
// operator's dashboard would, and notes the admission queue depth.
func (s *service) listAndMetrics(tr *tracer, ph *phase) {
	ph.attempted += 2
	var jobs []ccprofd.Job
	if err := tr.call("ccprofd.list", -1, -1, func() error { return s.getJSON("/jobs", &jobs) }); err != nil {
		ph.fail("GET /jobs: %v", err)
	}
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := tr.call("ccprofd.metrics", -1, -1, func() error { return s.getJSON("/metrics", &snap) }); err != nil {
		ph.fail("GET /metrics: %v", err)
	}
	tr.count("ccprofd.queue_depth", float64(snap.Gauges["ccprofd.queue_depth"]))
}

// record turns a finished job's timeline into spans: the generator's
// lateness, the submission round trip, the wait in the queue, the run,
// and the result fetch. Gaps between them are watch latency, which the
// budget leaves unexplained.
func (s *service) record(tr *tracer, j *job) {
	if !tr.on {
		return
	}
	opID, root := tr.recordOp(fmt.Sprintf("service/%s/%s", j.spec.Kind, j.spec.Workload), j.due, j.fetched)
	tr.record("loadgen.late", root, opID, j.due, j.sent)
	tr.record("ccprofd.submit", root, opID, j.sent, j.accepted)
	started := j.running
	if started == 0 {
		started = j.done
	}
	tr.record("ccprofd.queued", root, opID, j.accepted, started)
	if j.running > 0 {
		tr.record("ccprofd."+string(j.spec.Kind)+"_run", root, opID, j.running, j.done)
	}
	tr.record("ccprofd.result", root, opID, j.fetch, j.fetched)
}

func (s *service) layers(tr *tracer, spans []span) map[string]float64 {
	st := byName(spans)
	p := func(name string, q float64) float64 {
		if v := st[name]; v != nil {
			return quantile(v.durs, q) / 1e6
		}
		return 0
	}
	var busy, first, last int64
	for _, sp := range spans {
		if sp.Name == "ccprofd.profile_run" || sp.Name == "ccprofd.advise_run" {
			busy += sp.dur()
		}
		if sp.Name == "op" {
			if first == 0 || sp.Start < first {
				first = sp.Start
			}
			last = max(last, sp.End)
		}
	}
	busyPct := 0.0
	if last > first {
		busyPct = 100 * float64(busy) / float64(int64(s.cfg.workers)*(last-first))
	}
	return map[string]float64{
		"ccprofd.busy_pct":           busyPct,
		"ccprofd.submit_ms_p50":      p("ccprofd.submit", 0.5),
		"ccprofd.submit_ms_p90":      p("ccprofd.submit", 0.9),
		"ccprofd.queued_ms_p50":      p("ccprofd.queued", 0.5),
		"ccprofd.profile_run_ms_p50": p("ccprofd.profile_run", 0.5),
		"ccprofd.advise_run_ms_p50":  p("ccprofd.advise_run", 0.5),
		"ccprofd.result_ms_p50":      p("ccprofd.result", 0.5),
		"ccprofd.refused":            tr.tally("ccprofd.refused").sum,
		"ccprofd.queue_depth_max":    max(tr.tally("ccprofd.queue_depth").max, tr.tally("ccprofd.queued_seen").max),
		"loadgen.late_ms_p90":        p("loadgen.late", 0.9),
	}
}

func (s *service) close() error {
	s.d.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.submit.CloseIdleConnections()
	s.watch.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(s.cfg.dir))
}
