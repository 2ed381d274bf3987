package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphrep"
	"graphrep/internal/server"
)

// served is one mapped engine behind its own server.New handler.
type served struct {
	db      *graphrep.Database
	engine  *graphrep.Engine
	handler http.Handler
}

func (s *served) close() {
	if s == nil {
		return
	}
	s.engine.Close()
	s.db.Close()
}

// openMapped opens the corpus and index files as a fresh mapped engine: an
// empty distance cache and fresh kernel tier gates. With a tracer it records
// the graph.open, graph.validate and index.open spans; validate additionally
// runs the deferred content scan up front (the server would otherwise run it
// inside the first session initialization).
func openMapped(corpusPath, indexPath string, tr *tracer, op, parent int, validate bool) (*graphrep.Database, *graphrep.Engine, error) {
	sp := tr.begin("graph.open", op, parent)
	db, err := graphrep.OpenDatabaseFile(corpusPath)
	tr.end(sp, nil)
	if err != nil {
		return nil, nil, err
	}
	if validate {
		sp = tr.begin("graph.validate", op, parent)
		err = db.EnsureValid()
		tr.end(sp, nil)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	sp = tr.begin("index.open", op, parent)
	e, err := graphrep.OpenWithIndexFile(db, indexPath)
	tr.end(sp, nil)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, e, nil
}

// setupOnce is the measured set-up path: corpus file → built index → saved
// NBIDX004 file → mapped engine → handler ready. The index.build span
// carries the built engine's build-phase gauges.
func setupOnce(corpusPath, indexPath string, shards int, tr *tracer) (*served, error) {
	root := tr.begin("setup", 0, 0)
	defer tr.end(root, nil)
	sp := tr.begin("graph.open", 0, root)
	db, err := graphrep.OpenDatabaseFile(corpusPath)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("index.build", 0, root)
	built, err := graphrep.Open(db, graphrep.Options{Shards: shards})
	if err != nil {
		tr.end(sp, nil)
		db.Close()
		return nil, err
	}
	attrs, err := buildAttrs(built)
	tr.end(sp, attrs)
	if err != nil {
		db.Close()
		return nil, err
	}
	sp = tr.begin("index.save", 0, root)
	err = writeFile(indexPath, built.SaveIndex)
	tr.end(sp, nil)
	if err != nil {
		db.Close()
		return nil, err
	}
	sp = tr.begin("index.open", 0, root)
	e, err := graphrep.OpenWithIndexFile(db, indexPath)
	tr.end(sp, nil)
	if err != nil {
		db.Close()
		return nil, err
	}
	sp = tr.begin("server.new", 0, root)
	h := server.New(e).Handler()
	tr.end(sp, nil)
	return &served{db: db, engine: e, handler: h}, nil
}

// buildAttrs reads the graphrep_build_*_seconds gauges from the built
// engine's Prometheus exposition, and the full solves the build spent.
func buildAttrs(e *graphrep.Engine) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := e.Telemetry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	gauges := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(sc.Text(), "%s %g", &name, &v); n == 2 {
			gauges[name] = v
		}
	}
	attrs := map[string]float64{"build_full_solves": float64(e.Telemetry().Snapshot().Prune.FullSolves())}
	for _, phase := range []string{"grid", "vpselect", "vantage", "tree", "total"} {
		v, ok := gauges["graphrep_build_"+phase+"_seconds"]
		if !ok {
			return nil, fmt.Errorf("perfbench: graphrep_build_%s_seconds missing from the engine's exposition", phase)
		}
		attrs["build_"+phase+"_s"] = v
	}
	return attrs, nil
}

// writeFile writes a file through a buffered writer and checks every step.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// httpFront is the in-process HTTP server every client talks to over
// loopback. The handler behind it can be swapped, so a cold-explore restart
// puts a fresh server.New handler behind the same address.
type httpFront struct {
	cur  atomic.Pointer[http.Handler]
	tr   *tracer
	srv  *http.Server
	done chan error
	url  string
	cl   *http.Client
}

// Request headers carrying the trace context from the client to the
// handler span.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

func startFront(tr *tracer) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{tr: tr, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	f.srv = &http.Server{Handler: f, ReadHeaderTimeout: time.Minute}
	f.cl = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	go func() { f.done <- f.srv.Serve(ln) }()
	return f, nil
}

func (f *httpFront) set(h http.Handler) { f.cur.Store(&h) }

// ServeHTTP hands the request to the current server.New handler, under a
// server.handler span when tracing.
func (f *httpFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := *f.cur.Load()
	if f.tr == nil || r.Header.Get(hdrSpan) == "" {
		h.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.Atoi(r.Header.Get(hdrOp))
	parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
	sp := f.tr.begin("server.handler", op, parent)
	h.ServeHTTP(w, r)
	f.tr.end(sp, nil)
}

// stop shuts the server down and waits for its goroutine to return.
func (f *httpFront) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	f.cl.CloseIdleConnections()
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one JSON request and decodes a 200 response into out. It
// returns the HTTP status; a transport failure returns an error.
func (f *httpFront) post(path string, body, out any, tr *tracer, op, span int) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, f.url+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil && span != 0 {
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrSpan, strconv.Itoa(span))
	}
	resp, err := f.cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s response: %w", path, err)
	}
	return resp.StatusCode, nil
}

// runDir makes the per-run directory for corpus and index files.
func runDir(out, workload string, seed int64) (string, error) {
	return os.MkdirTemp(out, fmt.Sprintf("run-%s-%d-", workload, seed))
}

// setupPaths returns the index path of set-up repetition i.
func setupPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("index-%d.nbidx", i))
}

// parallel runs fn(i) for i in [0, n) on up to w goroutines and returns the
// first error.
func parallel(n, w int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
