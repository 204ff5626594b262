package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// dbspdPool holds the quick-mode experiments dbspd-mix specs are drawn
// from: the two cheapest, about 0.2 and 0.5 ms of CPU, which touch the
// hmm and bt machines and run no D-BSP program or simulator. Misses
// then stay a small share of a round, and the workload is the control
// that a dbsp or simulator change must not move.
var dbspdPool = []string{"E01", "E02"}

// dealCuts are the set sizes one deal cycle cuts fresh permutations of
// the pool into, one permutation per row; each row sums to the pool size.
var dealCuts = [][]int{{1, 1}, {2}}

const (
	missEvery = 10 // every tenth submission is a new spec: 9 hits per miss
	tenants   = 4
	resumePct = 20 // share of reads that disconnect and resume with ?offset=N
	// roundRequests is one round's request count, split evenly over the
	// nproc clients: at least 220 misses and 1980 hits whatever nproc,
	// enough for a miss p95 and a hit p99 with ten samples beyond each.
	// Every round replays the same requests on a fresh daemon, so rounds
	// are alike and the daemon's retained state, and memory, is the same
	// at the end of each.
	roundRequests = 2200
)

// clientOps is each client's request count in one round.
func clientOps() int { return (roundRequests + nproc() - 1) / nproc() }

// dbspdOp is one client request: submit Spec, then read its results.
type dbspdOp struct {
	Spec serve.Spec `json:"spec"`
	Ref  int        `json:"ref"`  // index of Spec in the client's own spec list
	Miss bool       `json:"miss"` // first submission of Spec: must run
	// Resume > 0 reads that many lines, disconnects and resumes with
	// ?offset=Resume.
	Resume int `json:"resume,omitempty"`
}

// opGen is one client's op sequence, a pure function of (seed,
// client). A client only resubmits specs it submitted itself, so in a
// closed loop every resubmission follows the completed first run and
// is a cache hit.
type opGen struct {
	g     *workload.Gen
	n     int
	specs []serve.Spec
	deck  [][]string // ID sets dealt but not yet submitted
}

func newOpGen(seed uint64, client int) *opGen {
	return &opGen{g: workload.New(sweep.SeedFor(seed, "dbspd-client-"+strconv.Itoa(client)))}
}

func (o *opGen) next() dbspdOp {
	var op dbspdOp
	if o.n%missEvery == 0 {
		ids := o.deal()
		o.specs = append(o.specs, serve.Spec{
			Tenant:   "tenant-" + strconv.Itoa(o.g.Intn(tenants)),
			Priority: o.g.Intn(2),
			IDs:      ids,
			Quick:    true,
			Seed:     uint64(o.g.Int63()),
		})
		op.Ref, op.Miss = len(o.specs)-1, true
	} else {
		op.Ref = o.g.Intn(len(o.specs))
	}
	op.Spec = o.specs[op.Ref]
	if o.g.Intn(100) < resumePct {
		op.Resume = 1 + o.g.Intn(len(op.Spec.IDs))
	}
	o.n++
	return op
}

// deal returns the next new spec's IDs. Each cycle cuts fresh
// permutations of the pool into sets of dealCuts' sizes, so every pool
// experiment runs equally often whatever the seed (the miss work per
// round does not swing with it) and no set names an experiment twice.
func (o *opGen) deal() []string {
	if len(o.deck) == 0 {
		for _, cuts := range dealCuts {
			perm := workload.Permutation(uint64(o.g.Int63()), len(dbspdPool))
			for _, k := range cuts {
				ids := make([]string, k)
				for i := range ids {
					ids[i] = dbspdPool[perm[i]]
				}
				perm = perm[k:]
				o.deck = append(o.deck, ids)
			}
		}
	}
	ids := o.deck[0]
	o.deck = o.deck[1:]
	return ids
}

// daemon is serve.New's handler behind a loopback HTTP server.
type daemon struct {
	svc  *serve.Service
	srv  *http.Server
	base string
	done chan error
}

func startDaemon() (*daemon, error) {
	catalog, err := serve.NewCatalog(experiments.Jobs())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		svc:  serve.New(catalog, serve.Options{}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	d.srv = &http.Server{Handler: d.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.done <- d.srv.Serve(ln) }()
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		http.DefaultClient.CloseIdleConnections()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	d.svc.Close()
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		logf("dbspd server: %v", err)
	}
}

// opTiming is one request's client-side timeline.
type opTiming struct {
	start, submitted, getStart, firstByte, end time.Time
}

// missRec is what a miss leaves for the after-loop check against a
// direct sweep.
type missRec struct {
	job    string
	spec   serve.Spec
	masked [32]byte
}

// dbspdClient is one closed-loop client: it sends its next request
// only after reading the previous response to the last byte.
type dbspdClient struct {
	base string
	hc   *http.Client
	gen  *opGen
	raw  [][32]byte // per own spec: hash of its miss's stream

	misses          []missRec
	hitMs, missMs   []float64
	submitMs        []float64
	firstMs, tailMs []float64
	attempted       int
	failures        []string

	rec  *recorder
	lane int
}

func (c *dbspdClient) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// failOp records a failed op. A failed miss leaves a zero hash in
// c.raw, so c.raw stays indexed like the client's specs and each later
// hit of that spec fails its comparison instead of reading past the end.
func (c *dbspdClient) failOp(op dbspdOp, format string, args ...any) {
	if op.Miss {
		c.raw = append(c.raw, [32]byte{})
	}
	c.fail(format, args...)
}

func (c *dbspdClient) do(op dbspdOp) {
	c.attempted++
	var t opTiming
	t.start = time.Now()
	st, err := c.submit(op.Spec)
	t.submitted = time.Now()
	if err != nil {
		c.failOp(op, "submit %v: %v", op.Spec.IDs, err)
		return
	}
	if st.Cached == op.Miss {
		c.fail("job %s: cached=%t, but the op is a %s", st.ID, st.Cached, map[bool]string{true: "first submission", false: "resubmission"}[op.Miss])
	}
	body, err := c.results(st.ID, op.Resume, &t)
	t.end = time.Now()
	if err != nil {
		c.failOp(op, "job %s results: %v", st.ID, err)
		return
	}
	lat := ms(t.end.Sub(t.start))
	sum := sha256.Sum256(body)
	if op.Miss {
		c.missMs = append(c.missMs, lat)
		c.raw = append(c.raw, sum)
		c.misses = append(c.misses, missRec{job: st.ID, spec: op.Spec, masked: sha256.Sum256(maskTimes(body))})
	} else {
		c.hitMs = append(c.hitMs, lat)
		if sum != c.raw[op.Ref] {
			c.fail("job %s: cache hit differs from its first run's stream", st.ID)
		}
	}
	c.submitMs = append(c.submitMs, ms(t.submitted.Sub(t.start)))
	c.firstMs = append(c.firstMs, ms(t.firstByte.Sub(t.getStart)))
	c.tailMs = append(c.tailMs, ms(t.end.Sub(t.firstByte)))
	if c.rec != nil {
		root := c.rec.add(c.lane, "bench", "request", st.ID, t.start, t.end)
		c.rec.add(root, "serve", "submit", st.ID, t.start, t.submitted)
		c.rec.add(root, "serve", "first-byte", st.ID, t.getStart, t.firstByte)
		c.rec.add(root, "serve", "stream", st.ID, t.firstByte, t.end)
	}
}

func (c *dbspdClient) submit(spec serve.Spec) (serve.JobStatus, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return st, json.Unmarshal(raw, &st)
}

// results reads job's JSONL stream to the last byte. With resume > 0
// it reads resume lines, drops the connection, and fetches the rest
// with ?offset=resume; the concatenation must be the whole stream.
func (c *dbspdClient) results(job string, resume int, t *opTiming) ([]byte, error) {
	url := c.base + "/api/v1/jobs/" + job + "/results"
	t.getStart = time.Now()
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(resp.Body)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET results: %s", resp.Status)
	}
	_, _ = br.Peek(1)
	t.firstByte = time.Now()
	var out []byte
	if resume > 0 {
		for i := 0; i < resume; i++ {
			line, err := br.ReadBytes('\n')
			if err != nil {
				resp.Body.Close()
				return nil, fmt.Errorf("reading line %d of %d before resuming: %v", i+1, resume, err)
			}
			out = append(out, line...)
		}
		resp.Body.Close() // disconnect mid-stream
		resp, err = c.hc.Get(url + "?offset=" + strconv.Itoa(resume))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("GET results?offset=%d: %s", resume, resp.Status)
		}
		br = bufio.NewReader(resp.Body)
	}
	rest, err := io.ReadAll(br)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return append(out, rest...), nil
}

// The two documented run-varying JSONL fields. start_ms is omitted
// when it is zero, so masking drops it rather than zeroing it.
var (
	startRE = regexp.MustCompile(`"start_ms":[-+0-9.eE]+,`)
	wallRE  = regexp.MustCompile(`"wall_ms":[-+0-9.eE]+`)
)

// maskTimes removes start_ms, zeroes wall_ms and leaves every other
// byte as it is, so any other difference still shows.
func maskTimes(stream []byte) []byte {
	return wallRE.ReplaceAll(startRE.ReplaceAll(stream, nil), []byte(`"wall_ms":0`))
}

// directStream runs spec the way the service would, straight through
// sweep.Run and sweep.WriteJSONL: the reference a miss must equal.
func directStream(catalog serve.Catalog, spec serve.Spec) ([]byte, error) {
	jobs, err := catalog.Resolve(spec.IDs)
	if err != nil {
		return nil, err
	}
	outs, err := sweep.Run(context.Background(), jobs, sweep.Options{
		KeepGoing: true, Quick: spec.Quick, Seed: spec.Seed, Metrics: spec.Metrics,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSONL(&buf, outs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verifyMisses checks every miss against a direct sweep of its spec,
// nproc specs at a time, after the timed rounds. Rounds repeat the same
// ops, so each distinct spec is swept once and every round's stream of
// it is compared with that one.
func verifyMisses(misses []missRec) []string {
	catalog, err := serve.NewCatalog(experiments.Jobs())
	if err != nil {
		return []string{err.Error()}
	}
	bySpec := map[string][]missRec{}
	var keys []string
	for _, m := range misses {
		k := fmt.Sprintf("%v", m.spec)
		if bySpec[k] == nil {
			keys = append(keys, k)
		}
		bySpec[k] = append(bySpec[k], m)
	}
	var mu sync.Mutex
	var bad []string
	next := make(chan []missRec)
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ms := range next {
				want, err := directStream(catalog, ms[0].spec)
				sum := sha256.Sum256(maskTimes(want))
				for _, m := range ms {
					var msg string
					switch {
					case err != nil:
						msg = fmt.Sprintf("job %s: direct sweep: %v", m.job, err)
					case sum != m.masked:
						msg = fmt.Sprintf("job %s %v seed %d: stream differs from a direct sweep.Run + WriteJSONL", m.job, m.spec.IDs, m.spec.Seed)
					default:
						continue
					}
					mu.Lock()
					bad = append(bad, msg)
					mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		next <- bySpec[k]
	}
	close(next)
	wg.Wait()
	return bad
}

// round is one dbspd-mix round: a fresh daemon under roundRequests
// requests from nproc closed-loop clients.
type round struct {
	clients  []*dbspdClient
	setup    time.Duration // CPU time of the catalog build, daemon start and /healthz
	wall     time.Duration // first request to last byte of the last one
	cpu      time.Duration // process CPU time over the loop, daemon and clients
	jobs     int
	retained int     // jobs the daemon lists at the end
	cached   int     // of them, cache hits
	heapKB   float64 // live-heap growth over the loop, after GC
}

// runRound starts a daemon, drives it, and stops it. rec, when
// non-nil, gets one lane span per client under parent and one span set
// per request.
func runRound(seed uint64, rec *recorder, parent int) (round, error) {
	var rd round
	t0, cpu0 := time.Now(), cpuTime()
	dm, err := startDaemon()
	if err != nil {
		return rd, err
	}
	rd.setup = cpuTime() - cpu0
	rec.add(parent, "serve", "daemon-setup", "", t0, time.Now())
	defer dm.stop()

	n := nproc()
	tr := &http.Transport{MaxIdleConnsPerHost: n}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rd.clients = make([]*dbspdClient, n)
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for i := range rd.clients {
		c := &dbspdClient{base: dm.base, hc: hc, gen: newOpGen(seed, i), rec: rec}
		rd.clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec != nil {
				c.lane = rec.open(parent, "bench", "client")
				defer rec.close(c.lane)
			}
			for k := 0; k < clientOps(); k++ {
				c.do(c.gen.next())
			}
		}()
	}
	wg.Wait()
	rd.wall, rd.cpu = time.Since(start), cpuTime()-cpu0
	runtime.GC()
	runtime.ReadMemStats(&m1)
	rd.heapKB = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1024
	for _, st := range dm.svc.Scheduler().List() {
		rd.retained++
		if st.Cached {
			rd.cached++
		}
	}
	for _, c := range rd.clients {
		rd.jobs += c.attempted
	}
	return rd, nil
}

// tally folds the clients' attempts and failures into r and returns
// the misses still to be checked against direct sweeps.
func (rd round) tally(r *run) []missRec {
	var misses []missRec
	for _, c := range rd.clients {
		r.attempted += c.attempted
		for _, f := range c.failures {
			r.fail("dbspd-mix: %s", f)
		}
		misses = append(misses, c.misses...)
	}
	return misses
}

func (rd round) all(pick func(*dbspdClient) []float64) []float64 {
	var out []float64
	for _, c := range rd.clients {
		out = append(out, pick(c)...)
	}
	return out
}

func hitsOf(c *dbspdClient) []float64   { return c.hitMs }
func missesOf(c *dbspdClient) []float64 { return c.missMs }

// minRounds is the fewest rounds a dbspd-mix run makes.
const minRounds = 3

// dbspdMix runs rounds until d has passed, then checks every miss.
// The check re-runs one round's misses as direct sweeps; their CPU time
// beside a round's is the share of a round spent below serve (sweep,
// experiments and the hmm and bt machines), printed on stderr.
func dbspdMix(seed uint64, d time.Duration) (run, error) {
	var r run
	var setups, rates, cpus, roundCPU, hwms, lat []float64
	var misses []missRec
	var hits, missN int
	start := time.Now()
	for len(rates) < minRounds || time.Since(start) < d {
		runtime.GC()
		resetHWM()
		rd, err := runRound(seed, nil, 0)
		if err != nil {
			return r, err
		}
		hwms = append(hwms, float64(vmHWM())/1024)
		setups = append(setups, rd.setup.Seconds())
		rates = append(rates, float64(rd.jobs)/rd.wall.Seconds())
		cpus = append(cpus, ms(rd.cpu)/float64(rd.jobs))
		roundCPU = append(roundCPU, ms(rd.cpu))
		lat = append(lat, rd.all(hitsOf)...)
		lat = append(lat, rd.all(missesOf)...)
		hits += len(rd.all(hitsOf))
		missN += len(rd.all(missesOf))
		misses = append(misses, rd.tally(&r)...)
	}
	cpu0 := cpuTime()
	for _, f := range verifyMisses(misses) {
		r.fail("dbspd-mix: %s", f)
	}
	direct := ms(cpuTime() - cpu0)
	r.set("setup_s", "s", median(setups))
	r.set("cpu_ms_per_job", "ms", median(cpus))
	r.set("peak_rss_mb", "MB", median(hwms))
	level := tailLevel(minRounds * clientOps() * nproc())
	v, _ := percentile(sortedCopy(lat), level)
	logf("dbspd-mix: %d rounds, %d hits, %d misses; request p50 %.3f ms, p%g %.3f ms; %.0f jobs/s",
		len(rates), hits, missN, median(lat), level, v, median(rates))
	logf("dbspd-mix: direct sweeps of one round's %d misses: %.0f ms CPU, %.1f%% of a round's %.0f ms CPU",
		missN/len(rates), direct, 100*direct/median(roundCPU), median(roundCPU))
	return r, nil
}

// tracedDbspd runs one traced round and sets the serve-layer metrics.
func tracedDbspd(rec *recorder, parent int, seed uint64, r *run) (int, time.Duration, error) {
	root := rec.open(parent, "bench", "dbspd-mix")
	t0 := time.Now()
	rd, err := runRound(seed, rec, root)
	if err != nil {
		return 0, 0, err
	}
	rec.close(root)
	wall := time.Since(t0)
	for _, f := range verifyMisses(rd.tally(r)) {
		r.fail("dbspd-mix: %s", f)
	}
	hits, misses := rd.all(hitsOf), rd.all(missesOf)
	fixed := func(name string, xs []float64, p float64) {
		v, beyond := percentile(sortedCopy(xs), p)
		if beyond < minBeyond {
			r.fail("dbspd-mix: %s has %d samples beyond it, want %d", name, beyond, minBeyond)
		}
		r.set(name, "ms", v)
	}
	r.set("serve.hit_p50_ms", "ms", median(hits))
	fixed("serve.hit_p99_ms", hits, 99)
	r.set("serve.miss_p50_ms", "ms", median(misses))
	fixed("serve.miss_p95_ms", misses, 95)
	r.set("serve.jobs_per_s", "1/s", float64(rd.jobs)/rd.wall.Seconds())
	r.set("serve.submit_ms", "ms", median(rd.all(func(c *dbspdClient) []float64 { return c.submitMs })))
	r.set("serve.first_byte_ms", "ms", median(rd.all(func(c *dbspdClient) []float64 { return c.firstMs })))
	r.set("serve.stream_ms", "ms", median(rd.all(func(c *dbspdClient) []float64 { return c.tailMs })))
	r.set("serve.cache_hit_ratio", "ratio", float64(rd.cached)/float64(rd.retained))
	r.set("serve.jobs_retained", "count", float64(rd.retained))
	r.set("serve.heap_kb_per_kjob", "kB", rd.heapKB/(float64(rd.jobs)/1000))
	logf("traced dbspd-mix: %d hits, %d misses; cache hit ratio %d/%d; heap %+.0f kB over %d jobs",
		len(hits), len(misses), rd.cached, rd.retained, rd.heapKB, rd.jobs)
	return root, wall, nil
}
