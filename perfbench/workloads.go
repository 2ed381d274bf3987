package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"graphrep"
	"graphrep/internal/server"
)

// workloadDef describes one workload. The three share the corpus generator
// and differ in what the cache holds, who writes, and how many clients run.
type workloadDef struct {
	name string
	why  string
	// shards is Options.Shards of the built index.
	shards int
	// specFracs are the fractions of the corpus the relevance specs select.
	specFracs []float64
	// clients is the number of closed-loop query clients.
	clients int
	// cold makes every query op a restart: a fresh mapped engine behind a
	// fresh handler, so no distance is cached.
	cold bool
	// writer adds one /insert client beside the query clients. It sends one
	// insert per queriesPerInsert queries, while the query it is paired with
	// runs, so the share of queries that find their session flushed does not
	// depend on how fast the machine runs. (A writer on a
	// fixed clock fed that share back into query latency: a slow stretch
	// meant fewer queries per insert, so more paid session init and solves,
	// and query_p90_ms spread by 0.3 between runs of one seed.)
	writer           bool
	queriesPerInsert int
	// epilogueInserts are /insert requests sent after the timed phase of a
	// workload without a writer, so every workload reports insert latency.
	epilogueInserts int
	// replayQueries and replayInserts size the traced replay.
	replayQueries, replayInserts int
}

var workloads = []workloadDef{
	{
		name:            "cold-explore",
		why:             "each op restarts from the mapped files with an empty pair cache, so kernel and metric do the work; its kernel.*, metric.prune_* and index.*_per_query counts repeat per seed: exact-gate candidates",
		shards:          1,
		specFracs:       []float64{0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.13},
		clients:         1,
		cold:            true,
		epilogueInserts: 1000,
		replayQueries:   12,
		replayInserts:   20,
	},
	{
		name:            "warm-serve",
		why:             "a warm-up caches every pair the fixed mix touches, so kernel does no solves and index traversal, metric lookups and server carry the time",
		shards:          1,
		specFracs:       []float64{0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12},
		clients:         2,
		epilogueInserts: 1000,
		replayQueries:   200,
		replayInserts:   20,
	},
	{
		name:             "insert-mix",
		why:              "a writer inserts held-out graphs beside a warm query client, one per 6 queries: each insert costs vantage solves and flushes sessions; the 2-shard coordinator loop runs",
		shards:           2,
		specFracs:        []float64{0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12},
		clients:          1,
		writer:           true,
		queriesPerInsert: 6,
		replayQueries:    60,
		replayInserts:    30,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// insertLag is how long the writer waits after the paired query is sent.
const insertLag = time.Millisecond

// setupReps is the number of times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// bench is the state of one run of one workload.
type bench struct {
	w         workloadDef
	seed      int64
	seconds   float64
	dir       string
	in        *inputs
	indexPath string
	all       []query
	oracle    map[query]answer
	front     *httpFront
	rec       recorder
	setupS    []float64
}

// recorder collects latencies and failures; safe for concurrent clients.
type recorder struct {
	mu        sync.Mutex
	queryMs   []float64
	insertMs  []float64
	attempted int
	failed    int
	failures  []string
	breaches  []string
	phase     time.Duration // wall time of the timed phase
}

func (r *recorder) op(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *recorder) latency(insert bool, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if insert {
		r.insertMs = append(r.insertMs, ms(d))
	} else {
		r.queryMs = append(r.queryMs, ms(d))
	}
}

// breach records a workload-integrity violation: the run no longer tests the
// layer the workload was chosen for, so it fails.
func (r *recorder) breach(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breaches = append(r.breaches, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// prepare generates the inputs, runs the measured set-up setupReps times and
// computes the oracle. It returns the serving engine of the last set-up.
func (b *bench) prepare(tr *tracer) (*served, error) {
	in, err := genCorpus(b.dir)
	if err != nil {
		return nil, err
	}
	b.in = in
	held := b.w.epilogueInserts + b.w.replayInserts
	if b.w.writer {
		held = heldOutPool // the writer's insert count follows the query rate
	}
	if in.heldOut, err = heldOutGraphs(b.seed, held); err != nil {
		return nil, err
	}
	var last *served
	for i := 0; i < setupReps; i++ {
		path := setupPath(b.dir, i)
		start := time.Now()
		s, err := setupOnce(in.corpusPath, path, b.w.shards, tr)
		if err != nil {
			last.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		last.close()
		last, b.indexPath = s, path
	}
	// The oracle engine is opened from the same files but kept apart from
	// every timed engine, and its cost is excluded from setup_s.
	odb, oe, err := openMapped(in.corpusPath, b.indexPath, nil, 0, 0, false)
	if err != nil {
		last.close()
		return nil, err
	}
	defer oe.Close()
	defer odb.Close()
	if in.grid, err = readGrid(in.corpus, oe); err != nil {
		last.close()
		return nil, err
	}
	in.specs = thresholdSpecs(in.corpus, b.w.specFracs)
	b.all = combos(len(in.specs), len(in.grid))
	if b.oracle, err = exactAnswers(oe, in, b.all); err != nil {
		last.close()
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return last, nil
}

// checkQuery records one /query outcome against the oracle. Once the
// database has grown past the corpus (dbLen > corpusN) the oracle no longer
// applies and it checks the answer's shape only.
func (b *bench) checkQuery(q query, status int, err error, resp server.QueryResponse, dbLen int) bool {
	switch {
	case err != nil:
		b.rec.op(false, "query %+v: %v", q, err)
		return false
	case status != http.StatusOK:
		b.rec.op(false, "query %+v: status %d", q, status)
		return false
	}
	got := fromResponse(resp)
	if want, ok := b.oracle[q]; ok && dbLen == corpusN {
		b.rec.op(got.equal(want), "query %+v: got %v, oracle %v", q, got, want)
		return got.equal(want)
	}
	ok := len(got.ids) >= 1 && len(got.ids) <= q.k && got.covered <= got.relevant
	seen := map[int32]bool{}
	for _, id := range got.ids {
		ok = ok && !seen[id] && id >= 0 && int(id) < dbLen
		seen[id] = true
	}
	b.rec.op(ok, "query %+v: malformed %v", q, got)
	return ok
}

// sendQuery posts one /query to the engine serving db and checks it. The
// database length is read after the answer, so a concurrent insert can only
// make the check looser, never wrong.
func (b *bench) sendQuery(q query, db *graphrep.Database, tr *tracer, op, span int) (answer, bool, time.Duration) {
	var resp server.QueryResponse
	start := time.Now()
	status, err := b.front.post("/query", q.request(b.in), &resp, tr, op, span)
	d := time.Since(start)
	return fromResponse(resp), b.checkQuery(q, status, err, resp, db.Len()), d
}

// sendInsert posts held-out graph i and checks that the server assigned the
// next sequential ID.
func (b *bench) sendInsert(i int, wantID int, tr *tracer, op, span int) (bool, time.Duration) {
	var resp server.InsertResponse
	start := time.Now()
	status, err := b.front.post("/insert", b.in.heldOut[i], &resp, tr, op, span)
	d := time.Since(start)
	ok := err == nil && status == http.StatusOK && int(resp.ID) == wantID
	b.rec.op(ok, "insert %d: status %d id %d want %d err %v", i, status, resp.ID, wantID, err)
	return ok, d
}

// warmUp sends every combo once over two clients, so every session is
// initialized and every pair the mix touches is cached.
func (b *bench) warmUp(s *served) {
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(b.all); i += 2 {
				b.sendQuery(b.all[i], s.db, nil, 0, 0)
			}
		}(c)
	}
	wg.Wait()
}

// timed runs the workload's closed-loop clients for b.seconds and returns
// the engine that serves at the end (a cold run's last restart).
func (b *bench) timed(s *served) (*served, error) {
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	start := time.Now()
	defer func() { b.rec.phase = time.Since(start) }()
	if b.w.cold {
		return b.coldLoop(s, deadline)
	}
	before := s.engine.Telemetry().Snapshot()
	// tokens carries one send per queriesPerInsert completed queries; sized
	// to the pool so a query client never blocks on a lagging writer.
	tokens := make(chan struct{}, len(b.in.heldOut))
	var wg, queryWG sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		queryWG.Add(1)
		go func(c int) {
			defer wg.Done()
			defer queryWG.Done()
			seq := newOpSequence(len(b.in.specs), len(b.in.grid), clientSeed(b.seed, c))
			for n := 1; time.Now().Before(deadline); n++ {
				if b.w.writer && n%b.w.queriesPerInsert == 0 && len(tokens) < cap(tokens) {
					tokens <- struct{}{}
				}
				_, _, d := b.sendQuery(seq.next(), s.db, nil, 0, 0)
				b.rec.latency(false, d)
			}
		}(c)
	}
	queriesDone := make(chan struct{})
	go func() {
		queryWG.Wait()
		close(queriesDone)
	}()
	if b.w.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := s.db.Len()
			for i := 0; i < len(b.in.heldOut); i++ {
				select {
				case <-tokens:
				case <-queriesDone:
					return
				}
				// Let the query sent with the token take its read locks
				// first: the insert then always queues behind that one query
				// and the next query queues behind the insert, instead of the
				// two racing for the lock.
				time.Sleep(insertLag)
				_, d := b.sendInsert(i, base+i, nil, 0, 0)
				b.rec.latency(true, d)
			}
		}()
	}
	wg.Wait()
	if !b.w.writer {
		after := s.engine.Telemetry().Snapshot()
		if n := after.Prune.FullSolves() - before.Prune.FullSolves(); n != 0 {
			b.rec.breach("warm phase ran %d full solves; the warm-up left pairs uncached", n)
		}
	}
	return s, nil
}

// clientSeed derives client c's op-sequence seed from the run seed.
func clientSeed(seed int64, c int) int64 { return seed*7919 + int64(c) + 1 }

// coldLoop is cold-explore's client: every op opens a fresh mapped engine,
// puts a fresh handler behind the front and sends one /query. The op's
// latency runs from the corpus open to the answer.
func (b *bench) coldLoop(s *served, deadline time.Time) (*served, error) {
	s.close() // the set-up engine is never queried in this workload
	var prev *served
	seq := newOpSequence(len(b.in.specs), len(b.in.grid), clientSeed(b.seed, 0))
	for time.Now().Before(deadline) {
		q := seq.next()
		start := time.Now()
		cur, err := b.restart(nil, 0, 0)
		if err != nil {
			prev.close()
			return nil, err
		}
		b.sendQuery(q, cur.db, nil, 0, 0)
		b.rec.latency(false, time.Since(start))
		prev.close()
		prev = cur
	}
	return prev, nil
}

// restart opens a fresh mapped engine behind a fresh handler and checks
// that it starts with an empty pair cache.
func (b *bench) restart(tr *tracer, op, parent int) (*served, error) {
	db, e, err := openMapped(b.in.corpusPath, b.indexPath, tr, op, parent, false)
	if err != nil {
		return nil, err
	}
	if snap := e.Telemetry().Snapshot(); snap.CacheEntries != 0 || snap.CacheHits != 0 || snap.CacheMisses != 0 {
		b.rec.breach("cold op started with a non-empty pair cache (%d entries)", snap.CacheEntries)
	}
	sp := tr.begin("server.new", op, parent)
	h := server.New(e).Handler()
	tr.end(sp, nil)
	b.front.set(h)
	return &served{db: db, engine: e, handler: h}, nil
}

// epilogue sends the workload's post-phase inserts, then a probe set that
// must match the exact greedy on the grown database. A cold run restarts
// once more first, so the engine it measures does not depend on which op
// happened to end the timed phase.
func (b *bench) epilogue(s *served) (*served, error) {
	if b.w.cold {
		cur, err := b.restart(nil, 0, 0)
		if err != nil {
			return s, err
		}
		s.close()
		s = cur
	}
	base := s.db.Len()
	for i := 0; i < b.w.epilogueInserts; i++ {
		_, d := b.sendInsert(i, base+i, nil, 0, 0)
		b.rec.latency(true, d)
	}
	return s, b.probe(s)
}

// probeQueries are the end-of-run probes: the two smallest specs at the
// middle grid threshold.
func (b *bench) probeQueries() []query {
	mid := len(b.in.grid) / 2
	return []query{{spec: 0, theta: mid, k: 10}, {spec: 1, theta: mid, k: 5}}
}

// probe checks each probe query's /query answer against
// TopKRepresentativeExact on the same (grown) engine.
func (b *bench) probe(s *served) error {
	for _, q := range b.probeQueries() {
		var resp server.QueryResponse
		status, err := b.front.post("/query", q.request(b.in), &resp, nil, 0, 0)
		if err != nil || status != http.StatusOK {
			b.rec.op(false, "probe %+v: status %d err %v", q, status, err)
			continue
		}
		rel, err := relevance(b.in.specs[q.spec])
		if err != nil {
			return err
		}
		res, err := s.engine.TopKRepresentativeExact(graphrep.Query{Relevance: rel, Theta: b.in.grid[q.theta], K: q.k})
		if err != nil {
			return err
		}
		got, want := fromResponse(resp), fromResult(res)
		b.rec.op(got.equal(want), "probe %+v on %d graphs: got %v, exact %v", q, s.db.Len(), got, want)
	}
	return nil
}

// heapLiveMB returns the live heap in MiB after a final GC. The second GC
// drops what the first moved into the sync.Pool victim caches, so pooled
// scratch buffers do not count as live.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readRuntime().heapLive) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
