package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pqgram/internal/forest"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/serve"
	"pqgram/internal/store"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// server is one running serving tier on a loopback listener.
type server struct {
	srv   *serve.Server
	col   *obs.Collector
	seg   *store.Segmented // nil for the in-memory engine
	dir   string           // store directory, "" for in-memory
	url   string
	hs    *http.Server
	spans *spanLog // nil when untraced
	wg    sync.WaitGroup
	err   error // Serve's result, valid after wg.Wait
}

// startServer builds the serving tier from the generated inputs exactly as
// cmd/pqserve would — parse, bulk-index through the workload's engine,
// listen — then warms it up until its lazy structures exist. The returned
// duration is the set-up time. col is shared by every server of a run, so
// the process-wide profile metrics land in it too.
func startServer(cfg config, w workload, in *inputs, col *obs.Collector, traced bool, setupNo int) (*server, time.Duration, error) {
	t0 := time.Now()
	docs := make([]forest.Doc, len(in.xml))
	for i, x := range in.xml {
		t, err := xmlconv.ParseString(x, xmlconv.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("parsing %s: %w", in.ids[i], err)
		}
		docs[i] = forest.Doc{ID: in.ids[i], Tree: t}
	}
	s := &server{col: col}
	var f *forest.Index
	var backend serve.Backend
	if w.segmented {
		s.dir = filepath.Join(cfg.WorkDir, fmt.Sprintf("store-%d-%d", os.Getpid(), setupNo))
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, 0, err
		}
		st, err := store.CreateSegmented(filepath.Join(s.dir, "index.pq"), profile.Default)
		if err != nil {
			return nil, 0, err
		}
		st.SetSync(false)
		st.SetFlushThreshold(cfg.FlushEvery)
		st.SetCollector(col)
		if err := st.AddAll(docs, 0); err != nil {
			st.Close()
			return nil, 0, err
		}
		s.seg, f, backend = st, st.Forest(), st
	} else {
		f = forest.New(profile.Default)
		f.SetCollector(col)
		if err := f.AddAll(docs, 0); err != nil {
			return nil, 0, err
		}
	}
	f.SetPlanMode(forest.PlanAuto)
	s.srv = serve.New(f, backend, serve.Config{
		CacheSize:   cacheSize,
		MaxInFlight: maxInFlight,
		MaxQueue:    maxQueue,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	}, col)
	col.SetTracer(nil) // serve.New attaches a sampling tracer; run with it off

	var h http.Handler = s.srv
	if traced {
		s.spans = &spanLog{}
		h = s.spans.wrap(s.srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStore()
		return nil, 0, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()

	// Warm up from seeds distinct from the measured ones: the first top-k
	// builds the VP-tree, and the client's connection is established.
	warm, err := in.fixedReads(tagWarm, warmQueries, []float64{0.3})
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	wc := newHTTPClient()
	defer wc.CloseIdleConnections()
	for _, r := range warm {
		status, _, _, err := post(wc, s.url, r, "warm")
		if err != nil || status != http.StatusOK {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up %s: status %d: %v", r.path, status, err)
		}
	}
	return s, time.Since(t0), nil
}

// stop shuts the listener down, waits for the serving goroutine, and
// closes and removes the store.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.wg.Wait()
	if err == nil {
		err = s.err
	}
	if cerr := s.closeStore(); err == nil {
		err = cerr
	}
	return err
}

func (s *server) closeStore() error {
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	s.seg = nil
	return err
}

// diskBytes sums the sizes of every file in the store directory.
func (s *server) diskBytes() (int64, error) {
	if s.dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(s.dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// referenceForest indexes trees with the exhaustive planner and no
// collector: the answer checks' ground truth, built off the clock.
func referenceForest(ids []string, trees []*tree.Tree) (*forest.Index, error) {
	f := forest.New(profile.Default)
	f.SetPlanMode(forest.PlanExhaustive)
	docs := make([]forest.Doc, len(ids))
	for i := range ids {
		docs[i] = forest.Doc{ID: ids[i], Tree: trees[i]}
	}
	return f, f.AddAll(docs, 0)
}

// spanLog is the traced run's server-side middleware: one span per
// request, keyed by the client-set X-Request-ID, kept in memory.
type spanLog struct {
	base time.Time
	mu   sync.Mutex
	on   bool
	recs []serverSpan
}

type serverSpan struct {
	id         string
	start, end time.Duration // since base
}

func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		l.mu.Lock()
		if l.on {
			l.recs = append(l.recs, serverSpan{id: r.Header.Get("X-Request-ID"), start: t0.Sub(l.base), end: t1.Sub(l.base)})
		}
		l.mu.Unlock()
	})
}

// record starts (on) or stops recording spans relative to base.
func (l *spanLog) record(on bool, base time.Time) {
	l.mu.Lock()
	l.on, l.base = on, base
	l.mu.Unlock()
}

func (l *spanLog) spans() []serverSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]serverSpan(nil), l.recs...)
}
