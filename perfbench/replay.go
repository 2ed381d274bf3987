package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"graphrep"
)

// replayOp is one op of the traced replay: a query, or an insert of
// held-out graph held.
type replayOp struct {
	insert bool
	q      query
	held   int
}

// replayOps is the workload's seeded op sequence as the traced run replays
// it, one op at a time: the first replayQueries queries of client 0's
// sequence, then replayInserts inserts, each followed, for a workload with a
// writer, by queriesPerInsert queries (the timed phase's mix). The first
// replayQueries ops are the read-only prefix.
func (b *bench) replayOps() []replayOp {
	seq := newOpSequence(len(b.in.specs), len(b.in.grid), clientSeed(b.seed, 0))
	var ops []replayOp
	for i := 0; i < b.w.replayQueries; i++ {
		ops = append(ops, replayOp{q: seq.next()})
	}
	for i := 0; i < b.w.replayInserts; i++ {
		ops = append(ops, replayOp{insert: true, held: i})
		for j := 0; b.w.writer && j < b.w.queriesPerInsert; j++ {
			ops = append(ops, replayOp{q: seq.next()})
		}
	}
	return ops
}

// twin is the engine the traced run drives directly, through the public
// engine API, with the same op sequence the served engine gets over HTTP.
// The program is deterministic, so the twin does the same work; spans around
// its calls time each layer below the handler without changing the program.
type twin struct {
	db       *graphrep.Database
	engine   *graphrep.Engine
	sessions map[int]*graphrep.Session
}

func (t *twin) close() {
	if t != nil {
		t.engine.Close()
		t.db.Close()
	}
}

func (b *bench) openTwin(tr *tracer, op, parent int) (*twin, error) {
	db, e, err := openMapped(b.in.corpusPath, b.indexPath, tr, op, parent, true)
	if err != nil {
		return nil, err
	}
	return &twin{db: db, engine: e, sessions: map[int]*graphrep.Session{}}, nil
}

// warmTwin gives the twin the warm-up the served engine got: every session
// initialized and every combo answered once.
func (b *bench) warmTwin(t *twin) error {
	for i, spec := range b.in.specs {
		rel, err := relevance(spec)
		if err != nil {
			return err
		}
		if t.sessions[i], err = t.engine.NewSession(rel); err != nil {
			return err
		}
	}
	return parallel(len(b.all), 2, func(i int) error {
		q := b.all[i]
		_, err := t.sessions[q.spec].TopK(b.in.grid[q.theta], q.k)
		return err
	})
}

// kernelSamplePairs is the size of the fixed seeded sample kernel.exact_us
// is timed on.
const kernelSamplePairs = 1000

// kernelSample times graphrep.Distance, the exact star distance, on a fixed
// seeded sample of corpus pairs.
func (b *bench) kernelSample(tr *tracer) {
	rng := rand.New(rand.NewSource(b.seed))
	pairs := make([][2]*graphrep.Graph, kernelSamplePairs)
	for i := range pairs {
		pairs[i] = [2]*graphrep.Graph{
			b.in.corpus.Graph(graphrep.ID(rng.Intn(corpusN))),
			b.in.corpus.Graph(graphrep.ID(rng.Intn(corpusN))),
		}
	}
	sum := 0.0
	sp := tr.begin("kernel.exact", 0, 0)
	for _, p := range pairs {
		sum += graphrep.Distance(p[0], p[1])
	}
	tr.end(sp, map[string]float64{"pairs": kernelSamplePairs, "distance_sum": sum})
}

// counterAttrs is the difference of two telemetry snapshots, as span attrs.
func counterAttrs(before, after graphrep.TelemetrySnapshot) map[string]float64 {
	p0, p1 := before.Prune, after.Prune
	return map[string]float64{
		"distance_computations": float64(after.DistanceComputations - before.DistanceComputations),
		"cache_hits":            float64(after.CacheHits - before.CacheHits),
		"cache_misses":          float64(after.CacheMisses - before.CacheMisses),
		"prune_embedding":       float64(p1.Embedding - p0.Embedding),
		"prune_rowmin":          float64(p1.RowMin - p0.RowMin),
		"prune_rowmin_solved":   float64(p1.RowMinSolved - p0.RowMinSolved),
		"prune_greedy":          float64(p1.Greedy - p0.Greedy),
		"prune_dual":            float64(p1.Dual - p0.Dual),
		"bounded_exact":         float64(p1.BoundedExact - p0.BoundedExact),
		"greedy_tried":          float64(p1.GreedyTried - p0.GreedyTried),
		"dual_armed":            float64(p1.DualArmed - p0.DualArmed),
		"full_solves":           float64(p1.FullSolves() - p0.FullSolves()),
		"pruned":                float64(p1.Pruned() - p0.Pruned()),
	}
}

// traced is the -trace 1 run: the kernel sample, an untraced replay of the
// read-only prefix (the overhead baseline, which also carries the runtime
// counters), then the traced replay of the whole op sequence against the
// served engine over HTTP and the twin directly. It writes the spans to
// path and closes every engine.
func (b *bench) traced(s *served, tr *tracer, path string) error {
	ops := b.replayOps()
	prefix := ops[:b.w.replayQueries]
	b.kernelSample(tr)
	if b.w.cold {
		s.close() // every cold op restarts; the set-up engine is not queried
		s = nil
	} else {
		b.warmUp(s)
	}
	s, err := b.replayUntraced(s, prefix, tr)
	if err != nil {
		s.close()
		return err
	}
	var tw *twin
	if !b.w.cold {
		sp := tr.begin("twin.setup", 0, 0)
		tw, err = b.openTwin(tr, 0, sp)
		if err == nil {
			err = b.warmTwin(tw)
		}
		tr.end(sp, nil)
		if err != nil {
			s.close()
			tw.close()
			return err
		}
	}
	mirror, err := graphrep.OpenDatabaseFile(b.in.corpusPath)
	if err == nil {
		s, tw, err = b.replayTraced(s, tw, mirror, ops, tr)
		mirror.Close()
	}
	s.close()
	tw.close()
	if err != nil {
		return err
	}
	return tr.write(path)
}

// replayUntraced replays the read-only prefix through the served path with
// no spans. One span around the whole phase records the op latency median
// and the Go runtime counters the phase moved.
func (b *bench) replayUntraced(s *served, prefix []replayOp, tr *tracer) (*served, error) {
	runtime.GC()
	rt0 := readRuntime()
	sp := tr.begin("replay.untraced", 0, 0)
	lat := make([]float64, 0, len(prefix))
	for _, op := range prefix {
		start := time.Now()
		if b.w.cold {
			cur, err := b.restart(nil, 0, 0)
			if err != nil {
				return s, err
			}
			s.close()
			s = cur
		}
		b.sendQuery(op.q, s.db, nil, 0, 0)
		lat = append(lat, ms(time.Since(start)))
	}
	rt1 := readRuntime()
	tr.end(sp, map[string]float64{
		"queries":     float64(len(prefix)),
		"op_p50_ms":   quantile(lat, 0.5),
		"alloc_bytes": float64(rt1.allocBytes - rt0.allocBytes),
		"gc_cycles":   float64(rt1.gcCycles - rt0.gcCycles),
		"gc_pause_ms": (rt1.gcPauseS - rt0.gcPauseS) * 1e3,
	})
	return s, nil
}

// replayTraced replays ops one at a time. Each op goes first through the
// served path (client.op → client.roundtrip → server.handler, plus the
// restart spans of a cold op), then through the twin (twin.op →
// index.session_init, index.topk, index.insert). Inserts also append the
// graph to mirror, a third copy of the database, to time Database.Append on
// its own (graph.append). The twin's answers must equal the served answers.
func (b *bench) replayTraced(s *served, tw *twin, mirror *graphrep.Database, ops []replayOp, tr *tracer) (*served, *twin, error) {
	ctx := context.Background()
	root := tr.begin("replay.traced", 0, 0)
	queries, inserts := 0, 0
	for i, op := range ops {
		id := i + 1
		cop := tr.begin("client.op", id, 0)
		if op.insert {
			rt := tr.begin("client.roundtrip", id, cop)
			b.sendInsert(op.held, s.db.Len(), tr, id, rt)
			tr.end(rt, nil)
			tr.end(cop, map[string]float64{"insert": 1})
			inserts++
			tp := tr.begin("twin.op", id, 0)
			g, err := buildGraph(b.in.heldOut[op.held], graphrep.ID(tw.db.Len()))
			if err != nil {
				return s, tw, err
			}
			before := tw.engine.Telemetry().Snapshot()
			sp := tr.begin("index.insert", id, tp)
			err = tw.engine.Insert(g)
			tr.end(sp, counterAttrs(before, tw.engine.Telemetry().Snapshot()))
			if err != nil {
				return s, tw, err
			}
			// The server drops its cached sessions on insert; so does the twin.
			tw.sessions = map[int]*graphrep.Session{}
			sp = tr.begin("graph.append", id, tp)
			err = mirror.Append(g)
			tr.end(sp, nil)
			tr.end(tp, nil)
			if err != nil {
				return s, tw, err
			}
			continue
		}
		queries++
		if b.w.cold {
			cur, err := b.restart(tr, id, cop)
			if err != nil {
				return s, tw, err
			}
			s.close()
			s = cur
		}
		rt := tr.begin("client.roundtrip", id, cop)
		got, _, _ := b.sendQuery(op.q, s.db, tr, id, rt)
		tr.end(rt, nil)
		tr.end(cop, map[string]float64{"query": 1, "prefix": float64(btoi(i < b.w.replayQueries))})

		tp := tr.begin("twin.op", id, 0)
		if b.w.cold {
			next, err := b.openTwin(tr, id, tp)
			if err != nil {
				return s, tw, err
			}
			tw.close()
			tw = next
		}
		res, err := b.twinQuery(ctx, tw, op.q, tr, id, tp)
		tr.end(tp, nil)
		if err != nil {
			return s, tw, err
		}
		twinAns := fromResult(res)
		b.rec.op(twinAns.equal(got), "twin query %+v (op %d): twin %v, served %v", op.q, id, twinAns, got)
	}
	tr.end(root, map[string]float64{
		"queries":       float64(queries),
		"inserts":       float64(inserts),
		"cache_entries": float64(tw.engine.Telemetry().Snapshot().CacheEntries),
	})
	return s, tw, nil
}

// twinQuery answers q on the twin, initializing the spec's session first
// when the twin has none (as the server does on a session-cache miss).
func (b *bench) twinQuery(ctx context.Context, tw *twin, q query, tr *tracer, op, parent int) (*graphrep.Result, error) {
	sess, ok := tw.sessions[q.spec]
	if !ok {
		rel, err := relevance(b.in.specs[q.spec])
		if err != nil {
			return nil, err
		}
		before := tw.engine.Telemetry().Snapshot()
		sp := tr.begin("index.session_init", op, parent)
		sess, err = tw.engine.NewSessionContext(ctx, rel)
		tr.end(sp, counterAttrs(before, tw.engine.Telemetry().Snapshot()))
		if err != nil {
			return nil, err
		}
		tw.sessions[q.spec] = sess
	}
	before := tw.engine.Telemetry().Snapshot()
	sp := tr.begin("index.topk", op, parent)
	res, err := sess.TopKContext(ctx, b.in.grid[q.theta], q.k)
	attrs := counterAttrs(before, tw.engine.Telemetry().Snapshot())
	st := sess.LastStats()
	attrs["pq_pops"] = float64(st.PQPops)
	attrs["verified_leaves"] = float64(st.VerifiedLeaves)
	attrs["candidate_scans"] = float64(st.CandidateScans)
	attrs["exact_distances"] = float64(st.ExactDistances)
	attrs["pruned_distances"] = float64(st.PrunedDistances)
	tr.end(sp, attrs)
	if err != nil {
		return nil, fmt.Errorf("twin query %+v: %w", q, err)
	}
	return res, nil
}
