package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/allocclient"
	"repro/internal/allocsvc"
	"repro/internal/decisiontable"
	"repro/internal/wire"
)

// server is one allocsvc.Service behind a loopback HTTP listener.
type server struct {
	svc  *allocsvc.Service
	http *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg allocsvc.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		svc:  allocsvc.New(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.http = &http.Server{Handler: s.svc.Handler()}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener and the service and waits for both.
func (s *server) close() {
	_ = s.http.Close() // closing a loopback listener has nothing to report
	<-s.done
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.svc.Close(ctx) // drains in-flight computations; nothing is waiting on them
}

// deployment is a system under test: its shards and the way its client
// calls them.
type deployment struct {
	servers []*server
	// call sends one request the deployment's way and returns its
	// answer: the raw JSON body from setupExact, the decoded response
	// from tableDeployment.
	call func(r request) (any, error)
	// raw posts one request straight to a shard in the deployment's
	// encoding, bypassing any client, and returns the body.
	raw    func(r request) ([]byte, error)
	client *allocclient.Client
	tables *decisiontable.Set
	// meta sums allocclient.Meta over every call.
	retries, failovers, degraded atomic.Int64
	closeFn                      func()
}

func (d *deployment) close() {
	if d.closeFn != nil {
		d.closeFn()
	}
	for _, s := range d.servers {
		s.close()
	}
}

// stats sums the shards' service counters.
func (d *deployment) stats() allocsvc.Stats {
	var st allocsvc.Stats
	for _, s := range d.servers {
		x := s.svc.Stats()
		st.Requests += x.Requests
		st.OK += x.OK
		st.BadInput += x.BadInput
		st.Rejected += x.Rejected
		st.Timeouts += x.Timeouts
		st.Failures += x.Failures
		st.Coalesced += x.Coalesced
		st.TableHits += x.TableHits
		st.TableMisses += x.TableMisses
	}
	return st
}

func post(hc *http.Client, url, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// loopbackClient allows one connection per CPU, the benchmark's bound
// on requests in flight.
func loopbackClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}}
}

// setupExact starts serve-exact's system: one allocsvc.Service in its
// default configuration, called with JSON over loopback HTTP. Set-up
// ends with the answers to firsts, sent one at a time.
func setupExact(firsts []request) (*deployment, time.Duration, error) {
	start := time.Now()
	s, err := startServer(allocsvc.Config{})
	if err != nil {
		return nil, 0, err
	}
	hc := loopbackClient()
	d := &deployment{servers: []*server{s}}
	d.raw = func(r request) ([]byte, error) {
		return post(hc, s.url+r.route, "application/json", r.body)
	}
	d.call = func(r request) (any, error) { return d.raw(r) }
	d.closeFn = hc.CloseIdleConnections
	for _, r := range firsts {
		if _, err := d.call(r); err != nil {
			d.close()
			return nil, 0, fmt.Errorf("set-up answer to %s: %w", r.key, err)
		}
	}
	return d, time.Since(start), nil
}

// tableDeployment serves set from n binary-enabled shards behind an
// allocclient ring.
func tableDeployment(set *decisiontable.Set, n int) (*deployment, error) {
	d := &deployment{tables: set}
	var urls []string
	for i := 0; i < n; i++ {
		s, err := startServer(allocsvc.Config{Tables: set, Binary: true})
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, s)
		urls = append(urls, s.url)
	}
	c, err := allocclient.New(allocclient.Config{Shards: urls, Binary: true})
	if err != nil {
		d.close()
		return nil, err
	}
	d.client = c
	d.closeFn = c.Close
	d.call = func(r request) (any, error) {
		resp, meta, err := clientCall(c, r)
		d.retries.Add(int64(meta.Retries))
		d.failovers.Add(int64(meta.Failovers))
		if meta.Source == allocclient.SourceLocal {
			d.degraded.Add(1)
		}
		if err == nil && !meta.Binary {
			err = errors.New("answer did not travel over the binary protocol")
		}
		return resp, err
	}
	hc := loopbackClient()
	d.raw = func(r request) ([]byte, error) {
		frame, err := binaryFrame(r)
		if err != nil {
			return nil, err
		}
		// The ring pins a key to one shard; shard 0 serves any key equally.
		return post(hc, d.servers[0].url+r.route, wire.ContentType, frame)
	}
	return d, nil
}

// clientCall sends a coord or plan request through the client.
func clientCall(c *allocclient.Client, r request) (any, allocclient.Meta, error) {
	ctx := context.Background()
	switch {
	case r.coord != nil:
		return c.Coord(ctx, *r.coord)
	case r.plan != nil:
		return c.Plan(ctx, *r.plan)
	}
	return nil, allocclient.Meta{}, fmt.Errorf("route %s is not on the fast path", r.route)
}

// binaryFrame encodes a coord or plan request as a wire frame.
func binaryFrame(r request) ([]byte, error) {
	switch {
	case r.coord != nil:
		return wire.AppendCoordRequest(nil, r.coord)
	case r.plan != nil:
		return wire.AppendPlanRequest(nil, r.plan)
	}
	return nil, fmt.Errorf("route %s has no binary frame", r.route)
}
