package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"toppriv/internal/cluster"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// fabric is the loopback network of one run: an HTTP connection pool
// whose dialer resolves the stable names nodes are known by
// ("shard-0.bench") to whatever ports they listen on. The router's ring
// hashes shard URLs, so with the ports in them document placement, and
// with it shard balance and segment layout, would differ on every run.
type fabric struct {
	Client *http.Client
	mu     sync.RWMutex
	addr   map[string]string
}

func newFabric() *fabric {
	f := &fabric{addr: map[string]string{}}
	f.Client = &http.Client{Transport: &http.Transport{
		DialContext:  f.dial,
		MaxIdleConns: 64, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute,
	}}
	return f
}

func (f *fabric) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	real, ok := f.addr[host]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bench fabric: no node named %q", host)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, real)
}

// httpNode is one loopback listener. Its handler can be swapped, which
// is how a shard "restarts" at a stable address.
type httpNode struct {
	URL     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan struct{}
}

// startNode serves h on a fresh loopback port under name.
func (f *fabric) startNode(name string, h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	f.mu.Lock()
	f.addr[name] = ln.Addr().String()
	f.mu.Unlock()
	n := &httpNode{URL: "http://" + name, done: make(chan struct{})}
	n.swap(h)
	n.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*n.handler.Load()).ServeHTTP(w, r)
	})}
	go func() {
		defer close(n.done)
		// Serve returns ErrServerClosed after Close; any other error
		// surfaces as failed requests in the workload.
		_ = n.srv.Serve(ln)
	}()
	return n, nil
}

func (n *httpNode) swap(h http.Handler) { n.handler.Store(&h) }

// Close stops the listener and waits for the serve goroutine.
func (n *httpNode) Close() {
	n.srv.Close()
	<-n.done
}

// clusterRig is numShards shard servers and a router, in-process over
// loopback HTTP — real sockets, real JSON, separate vocabularies.
type clusterRig struct {
	scoring vsm.Scoring
	an      *textproc.Analyzer
	net     *fabric
	// name prefixes the shards' node names.
	name string
	// dir is the persistence root ("" for in-memory shards and an
	// unjournalled router).
	dir    string
	nodes  []*httpNode
	shards []*cluster.Shard
	router *cluster.Router
	// preloadDocsPerSec is the Router.Add rate during preload.
	preloadDocsPerSec float64
}

func (c *clusterRig) storeConfig() segment.Config {
	// Everything else is the store's default policy: seal at 256
	// documents, background leveled compaction at fan-out 4.
	return segment.Config{Scoring: c.scoring, Analyzer: c.an}
}

// Policies in force, for the run header. Every value is the package's
// default; the benchmark sets none of them.
const (
	storePolicy   = "store: seal at 256 docs, background leveled compaction at fan-out 4"
	durablePolicy = "durable rig: shards save every 32 mutations or 5s; router journal fsyncs every mutation (group commit), snapshot at 4 MiB"
)

// openShards opens (or reopens from c.dir) every shard and mounts it,
// starting listeners on first use and swapping handlers afterwards.
func (c *clusterRig) openShards() error {
	c.shards = c.shards[:0]
	for i := 0; i < numShards; i++ {
		var sh *cluster.Shard
		if c.dir != "" {
			var err error
			sh, err = cluster.OpenShard(c.storeConfig(), cluster.ShardConfig{Dir: filepath.Join(c.dir, fmt.Sprintf("shard-%d", i))})
			if err != nil {
				return fmt.Errorf("open shard %d: %w", i, err)
			}
		} else {
			st, err := segment.Open(c.storeConfig())
			if err != nil {
				return fmt.Errorf("open shard %d store: %w", i, err)
			}
			sh = cluster.NewShard(st)
		}
		c.shards = append(c.shards, sh)
		srv, err := search.NewServer(sh.Store(), nil)
		if err != nil {
			return err
		}
		sh.Mount(srv)
		if i < len(c.nodes) {
			c.nodes[i].swap(srv)
			continue
		}
		node, err := c.net.startNode(fmt.Sprintf("%s-shard-%d.bench", c.name, i), srv)
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, node)
	}
	return nil
}

func (c *clusterRig) openRouter() error {
	cfg := cluster.Config{Analyzer: c.an, HTTPClient: c.net.Client}
	for _, n := range c.nodes {
		cfg.Shards = append(cfg.Shards, n.URL)
	}
	if c.dir != "" {
		cfg.JournalDir = filepath.Join(c.dir, "journal")
	}
	r, err := cluster.New(cfg)
	if err != nil {
		return fmt.Errorf("open router: %w", err)
	}
	c.router = r
	return nil
}

// newClusterRig builds a cluster and preloads docs through Router.Add
// in order, so that gid i is docs[i]; then waits for every store's
// compactor to go quiet.
func newClusterRig(name string, scoring vsm.Scoring, an *textproc.Analyzer, net *fabric, dir string, docs []corpus.Document, batch int) (*clusterRig, error) {
	c := &clusterRig{name: name, scoring: scoring, an: an, net: net, dir: dir}
	if err := c.openShards(); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.openRouter(); err != nil {
		c.Close()
		return nil, err
	}
	start := time.Now()
	for lo := 0; lo < len(docs); lo += batch {
		hi := min(lo+batch, len(docs))
		gids, err := c.router.Add(docs[lo:hi]...)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		if gids[0] != corpus.DocID(lo) {
			c.Close()
			return nil, fmt.Errorf("preload: gid %d assigned to document %d", gids[0], lo)
		}
		if err := c.settle(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if len(docs) > 0 {
		c.preloadDocsPerSec = float64(len(docs)) / time.Since(start).Seconds()
	}
	if err := c.quiesce(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// settle waits until no store has a full compaction run left. Preload
// calls it after every batch, so that each merge happens at the same
// point of the ingest on every run and the segment layout a timed
// phase starts from does not depend on how the compactor was scheduled.
func (c *clusterRig) settle() error {
	const fanout = 4
	for i, sh := range c.shards {
		st := sh.Store()
		deadline := time.Now().Add(20 * time.Second)
		for {
			busy := false
			for _, n := range st.Stats().Levels {
				if n >= fanout {
					busy = true
				}
			}
			if !busy {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d compactor did not go quiet: levels %v", i, st.Stats().Levels)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// quiesce seals every memtable and lets the compactors finish.
func (c *clusterRig) quiesce() error {
	for i, sh := range c.shards {
		if err := sh.Store().Flush(); err != nil {
			return fmt.Errorf("flush shard %d: %w", i, err)
		}
	}
	return c.settle()
}

// stop closes the router and the shards — stopping the health loop,
// savers and compactors, and saving persistent shards — but keeps the
// listeners, so reopen can bring the cluster back at the same URLs.
func (c *clusterRig) stop() error {
	var errs []error
	if c.router != nil {
		errs = append(errs, c.router.Close())
		c.router = nil
	}
	for _, sh := range c.shards {
		errs = append(errs, sh.Close())
	}
	c.shards = c.shards[:0]
	return errors.Join(errs...)
}

// reopen restarts a stopped durable cluster from disk.
func (c *clusterRig) reopen() error {
	if err := c.openShards(); err != nil {
		return err
	}
	return c.openRouter()
}

func (c *clusterRig) Close() error {
	err := c.stop()
	for _, n := range c.nodes {
		n.Close()
	}
	c.nodes = nil
	return err
}

// stack is one workload's deployment: the client-facing search.Server
// and whatever answers behind it.
type stack struct {
	w     workload
	net   *fabric
	front *httpNode
	// engine is the single-node backend; rig the clustered one.
	engine *vsm.Engine
	rig    *clusterRig
	// docs are the documents held at start; document i has ID (gid) i.
	docs []corpus.Document
}

// subCorpus is the analyzed first n documents, pruned the way
// corpus.Synthesize prunes the whole.
func subCorpus(in *inputs, n int) (*corpus.Corpus, error) {
	if n >= in.corpus.NumDocs() {
		return in.corpus, nil
	}
	docs := append([]corpus.Document(nil), in.corpus.Docs[:n]...)
	return corpus.Build(docs, in.an, textproc.PruneSpec{MinDocFreq: 2})
}

func buildEngine(c *corpus.Corpus, an *textproc.Analyzer, scoring vsm.Scoring) (*vsm.Engine, error) {
	idx, err := index.Build(c)
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	return vsm.NewEngine(idx, an, scoring)
}

// buildStack builds w's deployment, all of it in memory.
func buildStack(w workload, sz sizes, in *inputs) (*stack, error) {
	s := &stack{w: w, net: newFabric()}
	n := w.Docs(sz)
	var srv *search.Server
	if w.Clustered {
		s.docs = plainDocs(in.corpus.Docs[:n])
		rig, err := newClusterRig("stack", w.Scoring, in.an, s.net, "", s.docs, sz.PreloadBatch)
		if err != nil {
			return nil, err
		}
		s.rig = rig
		srv, err = search.NewServer(rig.router, nil)
		if err != nil {
			s.Close()
			return nil, err
		}
	} else {
		c, err := subCorpus(in, n)
		if err != nil {
			return nil, err
		}
		s.docs = c.Docs
		s.engine, err = buildEngine(c, in.an, w.Scoring)
		if err != nil {
			return nil, err
		}
		srv, err = search.NewServer(s.engine, c.Docs)
		if err != nil {
			return nil, err
		}
	}
	front, err := s.net.startNode("front.bench", srv)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.front = front
	return s, nil
}

// Close stops every listener and background loop of the stack.
func (s *stack) Close() error {
	var err error
	if s.front != nil {
		s.front.Close()
		s.front = nil
	}
	if s.rig != nil {
		err = s.rig.Close()
		s.rig = nil
	}
	s.net.Client.CloseIdleConnections()
	return err
}

// closer collects things to release on every exit path.
type closer struct {
	mu  sync.Mutex
	fns []func()
}

func (c *closer) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

// run releases in reverse order; a second call does nothing.
func (c *closer) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}
