package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"artery/api"
	"artery/client"
	"artery/internal/cluster"
	"artery/internal/server"
	"artery/internal/store"
)

// arteryd's flag defaults (cmd/arteryd): the fleet runs exactly what a
// user who starts arteryd without flags gets.
const (
	defQueue         = 64
	defMaxJobs       = 2
	defMaxShots      = 1_000_000
	defShardAttempts = 3
	defCkptShots     = 256
	defRetain        = 4096
	defFsync         = "interval"
	defClientTimeout = 30 * time.Second // client.New's default HTTP timeout
)

// service is what a node runs: an arteryd server or a coordinator.
type service interface {
	Handler() http.Handler
	Start()
	Shutdown(ctx context.Context) error
}

// node is one in-process arteryd listening on loopback HTTP.
type node struct {
	name   string
	base   string
	svc    service
	hs     *http.Server
	served chan error
}

// fleet is the set of nodes one workload runs on. front is where clients
// submit; exec are the nodes that run the engine (the front node itself,
// or the coordinator's backends).
type fleet struct {
	front   *node
	exec    []*node
	all     []*node
	store   *store.Store
	dataDir string
}

// startFleet boots the workload's nodes. With a tracer, every node's
// handler is wrapped in the tracer's HTTP middleware and the
// coordinator's backend clients send through the tracer's RoundTripper.
func startFleet(sharded bool, dataDir string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	newNode := func(name string, svc service) error {
		n, err := serve(name, svc, tr)
		if err != nil {
			return err
		}
		f.all = append(f.all, n)
		return nil
	}
	arteryd := func() *server.Server {
		return server.New(server.Config{QueueDepth: defQueue, MaxConcurrentJobs: defMaxJobs, MaxShots: defMaxShots})
	}
	if !sharded {
		if err := newNode("arteryd", arteryd()); err != nil {
			return nil, err
		}
		f.front, f.exec = f.all[0], f.all
		return f, nil
	}
	for i := 0; i < 2; i++ {
		if err := newNode(fmt.Sprintf("backend%d", i), arteryd()); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.exec = append([]*node(nil), f.all...)
	if err := os.RemoveAll(dataDir); err != nil {
		f.stop()
		return nil, err
	}
	policy, err := store.ParsePolicy(defFsync)
	if err != nil {
		f.stop()
		return nil, err
	}
	st, err := store.Open(store.Config{Dir: dataDir, Fsync: policy, Retain: defRetain})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.store, f.dataDir = st, dataDir
	cfg := cluster.Config{
		Backends:          []string{f.exec[0].base, f.exec[1].base},
		ShardAttempts:     defShardAttempts,
		QueueDepth:        defQueue,
		MaxConcurrentJobs: defMaxJobs,
		MaxShots:          defMaxShots,
		Store:             st,
		CheckpointShots:   defCkptShots,
	}
	if tr != nil {
		hc := &http.Client{Timeout: defClientTimeout, Transport: tr.roundTripper(http.DefaultTransport)}
		cfg.ClientOptions = []client.Option{client.WithHTTPClient(hc)}
	}
	co, err := cluster.New(cfg)
	if err != nil {
		f.stop()
		return nil, err
	}
	if err := newNode("coordinator", co); err != nil {
		f.stop()
		return nil, err
	}
	f.front = f.all[len(f.all)-1]
	return f, nil
}

// serve starts a service and its HTTP listener on an ephemeral loopback
// port, as arteryd -addr 127.0.0.1:0 does.
func serve(name string, svc service, tr *tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc.Start()
	h := svc.Handler()
	if tr != nil {
		h = tr.middleware(name, h)
	}
	n := &node{name: name, base: "http://" + ln.Addr().String(), svc: svc, hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the fleet front to back, the way arteryd drains on
// SIGTERM: the coordinator first (its in-flight jobs end as canceled
// prefixes and its shard streams close), then the backends, then the
// journal. Every listener goroutine has exited when stop returns.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i := len(f.all) - 1; i >= 0; i-- {
		n := f.all[i]
		if err := n.svc.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s drain: %w", n.name, err))
		}
		if err := n.hs.Shutdown(ctx); err != nil {
			n.hs.Close()
			errs = append(errs, fmt.Errorf("%s http shutdown: %w", n.name, err))
		}
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("%s serve: %w", n.name, err))
		}
	}
	if f.store != nil {
		if err := f.store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal close: %w", err))
		}
		if err := os.RemoveAll(f.dataDir); err != nil {
			errs = append(errs, err)
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

// probe is the harness's own HTTP client for /readyz and /metrics.
var probe = &http.Client{Timeout: 5 * time.Second}

// waitReady polls every node's /readyz until all answer 200.
func (f *fleet) waitReady(ctx context.Context) error {
	for _, n := range f.all {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := probe.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never became ready: %w", n.name, ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// scrape fetches and parses one node's /metrics.
func (n *node) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := probe.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", n.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", n.name, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// waitIdle blocks until no node has a queued or running job, so work a
// warm-up left behind (hedge duplicates still running on a backend)
// finishes inside set-up instead of leaking into the timed phase.
func (f *fleet) waitIdle(ctx context.Context) error {
	for {
		busy := false
		for _, n := range f.all {
			m, err := n.scrape(ctx)
			if err != nil {
				return err
			}
			if m["artery_server_jobs_running"] != 0 || m["artery_server_queue_depth"] != 0 {
				busy = true
			}
		}
		if !busy {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// setUp boots a fleet and brings it to the state the timed phase starts
// from: every node ready, every job slot of the front node filled once
// by a warm-up job, and every node idle again. It returns the fleet and
// the seconds all of that took.
func setUp(ctx context.Context, spec *workloadSpec, warm []api.Request, dataDir string, tr *tracer) (*fleet, float64, error) {
	start := time.Now()
	f, err := startFleet(spec.sharded, dataDir, tr)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*fleet, float64, error) {
		return nil, 0, errors.Join(err, f.stop())
	}
	if err := f.waitReady(ctx); err != nil {
		return fail(err)
	}
	cl, err := client.New(f.front.base)
	if err != nil {
		return fail(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(warm))
	for i, req := range warm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runToEnd(ctx, cl, req)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	if err := f.waitIdle(ctx); err != nil {
		return fail(err)
	}
	return f, time.Since(start).Seconds(), nil
}

// runToEnd submits one job and drains its stream, requiring it to end
// done with every shot delivered.
func runToEnd(ctx context.Context, cl *client.Client, req api.Request) error {
	js, err := cl.Submit(ctx, req)
	if err != nil {
		return err
	}
	st, err := cl.Stream(ctx, js.ID)
	if err != nil {
		return err
	}
	defer st.Close()
	n := 0
	for {
		if _, err := st.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		n++
	}
	if end := st.End(); end.State != api.StateDone || n != req.Shots {
		return fmt.Errorf("job %s ended %s after %d of %d shots: %s", js.ID, end.State, n, req.Shots, end.Error)
	}
	return nil
}

// dataDirFor places a run's journal inside the checkout's build directory.
func dataDirFor(workload string, setup int) string {
	return filepath.Join(".bench_build", "e2ebench-data", fmt.Sprintf("%s-%d-%d", workload, os.Getpid(), setup))
}
