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
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"transit/internal/engine"
	"transit/internal/engine/diskcache"
	"transit/internal/obs"
	"transit/internal/server"
)

// serveMix is the serve-mix workload: two closed-loop clients submitting
// jobs over loopback HTTP to an in-process job server configured as
// `transit serve` is by default (2 jobs in flight, per-job tracing on,
// a flight recorder, one inference worker per CPU), on a disk cache that
// set-up filled and the server recovered at restart.
type serveMix struct {
	cfg  config
	ctx  context.Context
	sess *obs.Session
	gen  *jobGen
	dir  string
	hc   *http.Client

	// gate is held shared by each operation and exclusively by a restart;
	// inst changes only under the exclusive hold.
	gate sync.RWMutex
	inst *serverInstance
	ops  atomic.Int64

	// retention is set in traced runs: each restart then measures the
	// heap the stopped server held, retained bytes over restarts epochs.
	retention bool
	retained  float64
	restarts  int
}

const (
	serveClients = 2
	// fillJobs is how many of the first distinct jobs set-up solves into
	// the disk cache before restarting the server on it.
	fillJobs = 60
	// jobTimeout bounds one operation, submission to terminal result.
	jobTimeout = time.Minute
	// epochOps is how many operations run between server restarts. The
	// server keeps every finished job (with its trace ring and result) in
	// memory until it exits, so without restarts one run would grow the
	// process by gigabytes. The clients pause while the server restarts,
	// and the pause is left out of the measured time. The disk tier's
	// share (first uses after a restart) and most of peak_rss_mb scale
	// with this constant; server.retained_kb_per_job shows what one job
	// costs, so a fix to the retention shows there.
	epochOps = 800
)

// builtinTransitions is the number of transitions a completion of each
// built-in protocol installs, from the protocol definitions.
var builtinTransitions = map[string]int{"vi": 15, "msi": 40, "mesi": 49, "origin": 49, "origin-buggy": 49}

// poolJob is one distinct job of the sequence and the first answer the
// server gave for it.
type poolJob struct {
	idx     int
	spec    *solveSpec // nil for a completion job
	builtin string
	body    []byte

	mu      sync.Mutex
	answer  []byte // solve: the expression; complete: the whole result
	ops     int    // operations that returned answer
	checked bool
}

// jobGen draws the seeded job sequence. Each draw picks a pool — random
// problems with probability 0.8, the Table 3 rows and the built-in
// completions at n = 3 with 0.1 each — and then repeats an earlier job of
// that pool, or takes the pool's next new job. A random problem repeats
// with probability 0.4 and the two small pools repeat once exhausted, so
// about half of all draws repeat an earlier job, and completions, the
// slowest jobs even when cached, keep a steady share of the mix.
type jobGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	pools    [3]pool
	randoms  int
	distinct []*poolJob
	seq      []*poolJob
	cursor   int
}

// pool is one source of jobs: fresh holds the jobs not yet drawn (nil
// for the endless random pool), seen those already drawn.
type pool struct {
	weight  float64
	fresh   []*poolJob
	seen    []*poolJob
	endless bool
}

const randomRepeat = 0.4

func newJobGen(seed int64) *jobGen {
	g := &jobGen{rng: rand.New(rand.NewSource(seed))}
	g.pools[0] = pool{weight: 0.8, endless: true}
	for _, spec := range table3Specs() {
		g.pools[1].fresh = append(g.pools[1].fresh, &poolJob{spec: spec})
	}
	for _, b := range []string{"vi", "msi", "mesi", "origin", "origin-buggy"} {
		g.pools[2].fresh = append(g.pools[2].fresh, &poolJob{builtin: b})
	}
	g.pools[1].weight, g.pools[2].weight = 0.1, 0.1
	for i := 1; i < 3; i++ {
		f := g.pools[i].fresh
		g.rng.Shuffle(len(f), func(a, b int) { f[a], f[b] = f[b], f[a] })
	}
	return g
}

// draw appends one job to the sequence.
func (g *jobGen) draw() {
	x := g.rng.Float64()
	p := &g.pools[0]
	if x >= p.weight {
		p = &g.pools[1]
		if x >= g.pools[0].weight+p.weight {
			p = &g.pools[2]
		}
	}
	repeat := len(p.fresh) == 0
	if p.endless {
		repeat = len(p.seen) > 0 && g.rng.Float64() < randomRepeat
	}
	if repeat {
		g.seq = append(g.seq, p.seen[g.rng.Intn(len(p.seen))])
		return
	}
	var j *poolJob
	if p.endless {
		j = &poolJob{spec: randomSpec(g.rng, g.randoms)}
		g.randoms++
	} else {
		j, p.fresh = p.fresh[0], p.fresh[1:]
	}
	req := server.JobRequest{Kind: "complete", Complete: &server.CompleteRequest{Builtin: j.builtin, NumCaches: 3}}
	if j.spec != nil {
		req = server.JobRequest{Kind: "solve", Solve: &j.spec.req}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	j.idx, j.body = len(g.distinct), body
	p.seen = append(p.seen, j)
	g.distinct = append(g.distinct, j)
	g.seq = append(g.seq, j)
}

// firstDistinct returns the sequence's first n distinct jobs.
func (g *jobGen) firstDistinct(n int) []*poolJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.distinct) < n {
		g.draw()
	}
	return g.distinct[:n]
}

// next returns the timed run's next job, in sequence order.
func (g *jobGen) next() *poolJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.cursor >= len(g.seq) {
		g.draw()
	}
	j := g.seq[g.cursor]
	g.cursor++
	return j
}

// serverInstance is one running job server with its disk cache and
// loopback listener.
type serverInstance struct {
	store *diskcache.Store
	srv   *server.Server
	hs    *http.Server
	url   string
	done  chan error
}

// startServer opens the disk cache in dir and serves on a loopback port,
// wired as cmd/transit's serve subcommand wires it into its session.
func startServer(sess *obs.Session, dir string) (*serverInstance, error) {
	store, err := diskcache.Open(dir, diskcache.Options{Metrics: sess.Metrics})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Cache:       engine.NewCacheWithBackend(store),
		MaxInflight: 2,
		Workers:     runtime.NumCPU(),
		Metrics:     sess.Metrics,
		BaseContext: sess.Context(context.Background()),
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(time.Second)
		return nil, errors.Join(err, store.Close())
	}
	in := &serverInstance{
		store: store, srv: srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

func (in *serverInstance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serveErr := <-in.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	in.srv.Drain(10 * time.Second)
	return errors.Join(err, in.store.Close())
}

// restart stops the server and starts a new one on the same disk cache,
// as a daemon restart would.
func (s *serveMix) restart() error {
	err := s.inst.stop()
	s.inst = nil
	if err != nil {
		return err
	}
	s.inst, err = startServer(s.sess, s.dir)
	return err
}

func setupServeMix(ctx context.Context, cfg config, tr *tracing) (instance, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	s := &serveMix{
		cfg: cfg, gen: newJobGen(cfg.seed), dir: dir, retention: tr != nil,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
		}},
	}
	// `transit serve` always opens a session with a flight recorder.
	s.sess, err = tr.session(obs.Options{
		FlightPath: filepath.Join(cfg.outDir, fmt.Sprintf("flight-%d.ndjson", os.Getpid())),
	})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	if s.inst, err = startServer(s.sess, s.dir); err != nil {
		return nil, errors.Join(err, s.close())
	}
	// Fill the disk cache, checking each answer now: these are the first
	// answers later repeats must reproduce.
	for _, j := range s.gen.firstDistinct(fillJobs) {
		env, _, err := s.submit(ctx, j)
		if err == nil {
			err = s.firstAnswer(j, env)
			if err == nil && j.spec != nil {
				err = s.checkSolve(j)
			}
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("filling the disk cache: job %d: %w", j.idx, err), s.close())
		}
	}
	if err := s.restart(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.ctx = ctx
	if tr != nil {
		s.ctx = s.sess.Context(ctx)
	}
	return s, nil
}

func (s *serveMix) run(rec *recorder) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		tiers = map[string]int{}
		first error
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec.more() {
				if err := s.maybeRestart(rec); err != nil {
					mu.Lock()
					first = errors.Join(first, err)
					mu.Unlock()
					return
				}
				j := s.gen.next()
				s.gate.RLock()
				start := time.Now()
				ctx, op := obs.Start(s.ctx, opSpan, obs.Str("unit", fmt.Sprintf("job-%d", j.idx)))
				env, deduped, err := s.submit(ctx, j)
				op.End()
				lat := time.Since(start)
				s.gate.RUnlock()
				if err == nil {
					err = s.sameAnswer(j, env)
				}
				if err != nil {
					rec.fail("job %d: %v", j.idx, err)
				}
				mu.Lock()
				if env != nil {
					tiers[env.CacheTier]++
				}
				if deduped {
					tiers["dedup"]++
				}
				mu.Unlock()
				rec.op(lat, err == nil)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	n := float64(len(rec.lat))
	rec.layer["serve.disk_share"] = metric{float64(tiers[string(engine.TierDisk)]) / n, "share"}
	rec.layer["serve.mem_share"] = metric{float64(tiers[string(engine.TierMem)]) / n, "share"}
	rec.layer["serve.miss_share"] = metric{float64(tiers[string(engine.TierMiss)]) / n, "share"}
	rec.layer["serve.dedup_share"] = metric{float64(tiers["dedup"]) / n, "share"}
	rec.layer["server.retained_kb_per_job"] = metric{ratio(s.retained/1024, float64(s.restarts*epochOps)), "KB/job"}
	fmt.Fprintf(os.Stderr, "perfbench: serve tiers over %d operations: disk %d, mem %d, miss %d, dedup %d\n",
		len(rec.lat), tiers[string(engine.TierDisk)], tiers[string(engine.TierMem)], tiers[string(engine.TierMiss)], tiers["dedup"])
	return nil
}

// maybeRestart counts an operation and, every epochOps operations,
// restarts the server once no operation is in flight. The restart is
// excluded from the measured time.
func (s *serveMix) maybeRestart(rec *recorder) error {
	if s.ops.Add(1)%epochOps != 0 {
		return nil
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	t0 := time.Now()
	var before uint64
	if s.retention {
		runtime.GC()
		before = heapNow()
	}
	err := s.restart()
	if s.retention && err == nil {
		runtime.GC()
		s.retained += float64(before) - float64(heapNow())
		s.restarts++
	}
	rec.pause(time.Since(t0))
	return err
}

// submit posts one job and waits for its terminal envelope: the job's
// event stream ends when the job does, then one GET reads the result.
func (s *serveMix) submit(ctx context.Context, j *poolJob) (*server.JobEnvelope, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	sctx, sp := obs.Start(ctx, "http.submit")
	var env server.JobEnvelope
	status, err := s.do(sctx, http.MethodPost, "/v1/jobs", j.body, &env)
	sp.End()
	if err != nil {
		return nil, false, err
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		return nil, false, fmt.Errorf("submit: HTTP %d: %s", status, env.Error)
	}
	deduped := env.Deduped
	actx, sp := obs.Start(ctx, "http.await")
	defer sp.End()
	if status, err = s.do(actx, http.MethodGet, "/v1/jobs/"+env.ID+"/events", nil, nil); err == nil && status == http.StatusOK {
		status, err = s.do(actx, http.MethodGet, "/v1/jobs/"+env.ID, nil, &env)
	}
	if err != nil {
		return nil, deduped, err
	}
	if status != http.StatusOK {
		return nil, deduped, fmt.Errorf("await: HTTP %d", status)
	}
	if env.Status != string(server.JobDone) {
		return &env, deduped, fmt.Errorf("job %s ended %s: %s", env.ID, env.Status, env.Error)
	}
	return &env, deduped, nil
}

// do runs one request, decoding a JSON response into out (or discarding
// the body when out is nil).
func (s *serveMix) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.inst.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	// Error responses are {"error": ...}, which decodes into an
	// envelope's Error field.
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// resultAnswer extracts what a repeat must reproduce: the expression of a
// solve, the whole (deterministic) result of a completion.
func resultAnswer(j *poolJob, env *server.JobEnvelope) ([]byte, error) {
	if j.spec == nil {
		var res server.CompleteResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			return nil, err
		}
		if want := builtinTransitions[j.builtin]; res.Transitions != want {
			return nil, fmt.Errorf("%s completion installed %d transitions, want %d", j.builtin, res.Transitions, want)
		}
		return env.Result, nil
	}
	var res server.SolveResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, err
	}
	return []byte(res.Expr), nil
}

// firstAnswer records a job's first answer.
func (s *serveMix) firstAnswer(j *poolJob, env *server.JobEnvelope) error {
	ans, err := resultAnswer(j, env)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.answer = ans
	return nil
}

// sameAnswer checks a timed operation's answer: a repeat must equal the
// job's first answer; a first answer is recorded and checked against its
// specification after the timed loop.
func (s *serveMix) sameAnswer(j *poolJob, env *server.JobEnvelope) error {
	ans, err := resultAnswer(j, env)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.answer == nil {
		j.answer = ans
	} else if !bytes.Equal(ans, j.answer) {
		if j.spec != nil {
			return fmt.Errorf("%s: repeat answered %s, first answer was %s", j.spec.name, ans, j.answer)
		}
		return fmt.Errorf("%s: repeat completion differs from the first", j.builtin)
	}
	j.ops++
	return nil
}

// checkSolve evaluates a solve job's first answer against its spec.
func (s *serveMix) checkSolve(j *poolJob) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.checked = true
	e, err := j.spec.parseAnswer(string(j.answer))
	if err != nil {
		return fmt.Errorf("%s: %w", j.spec.name, err)
	}
	return j.spec.satisfies(e)
}

func (s *serveMix) verify(rec *recorder) {
	s.gen.mu.Lock()
	jobs := append([]*poolJob(nil), s.gen.distinct...)
	s.gen.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		pending := j.spec != nil && j.answer != nil && !j.checked
		j.mu.Unlock()
		if !pending {
			continue
		}
		if err := s.checkSolve(j); err != nil {
			rec.fail("job %d: %v", j.idx, err)
			rec.failOps(j.ops)
		}
	}
}

func (s *serveMix) close() error {
	var err error
	if s.inst != nil {
		err = s.inst.stop()
		s.inst = nil
	}
	s.hc.CloseIdleConnections()
	return errors.Join(err, closeSession(s.sess), os.RemoveAll(s.dir))
}
