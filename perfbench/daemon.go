package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"systolic"
	"systolic/internal/server"
)

// daemon is the service under test, served on a loopback port by this
// process, plus the HTTP client that drives it.
type daemon struct {
	base string
	hs   *http.Server
	done chan error
	hc   *http.Client
}

// cacheSize bounds the daemon's compiled-scenario cache. It is set
// explicitly, well below the default of 128, so that a cold set-up can
// fill it cheaply: every timed cold request then evicts one entry, and
// the daemon's retained heap is the same from the first timed request
// to the last.
const cacheSize = 6

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: systolic.NewServeHandler(systolic.ServeOptions{CacheSize: cacheSize}), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 60 * time.Second},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down and returns once its serve loop has ended.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	d.hc.CloseIdleConnections()
	return err
}

// post sends one request and reads the whole reply.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) stats() (systolic.ServeStats, error) {
	var s systolic.ServeStats
	resp, err := d.hc.Get(d.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// bench holds one workload's generated inputs.
type bench struct {
	w      *workloadSpec
	seed   int64
	exp    *expected
	shapes []*shape
	warm   []byte // the one body a warm workload sends
}

// input returns the shape and body of timed request i, or of set-up
// warm-up request i.
func (b *bench) input(i int, setup bool) (*shape, []byte, error) {
	sh := b.shapes[i%len(b.shapes)]
	if !b.w.cold {
		return sh, b.warm, nil
	}
	body, err := b.body(sh, b.salt(i, setup))
	return sh, body, err
}

// salt is the cell-name prefix of timed or set-up request i. A warm
// workload sends one program, so its salt depends on the seed alone;
// set-up requests of a cold one get their own, so they never collide
// with timed ones.
func (b *bench) salt(i int, setup bool) string {
	switch {
	case !b.w.cold:
		return fmt.Sprintf("s%d_", b.seed)
	case setup:
		return fmt.Sprintf("s%dw%d_", b.seed, i)
	}
	return fmt.Sprintf("s%dr%d_", b.seed, i)
}

func (b *bench) body(sh *shape, salt string) ([]byte, error) {
	src := sh.source(salt)
	if b.w.path == "/v1/sweep" {
		req := sweepGrid
		req.Program = src
		return json.Marshal(req)
	}
	return json.Marshal(runRequest(src))
}

// warmups is the number of set-up requests: one per shape, which
// compiles a warm workload's program into the daemon's cache, or, on a
// cold workload, enough salted programs to fill the cache.
func (b *bench) warmups() int {
	if b.w.cold {
		return max(cacheSize, len(b.w.shapes))
	}
	return len(b.w.shapes)
}

// setup generates the inputs, starts a daemon and sends the warm-up
// requests.
func (b *bench) setup() (*daemon, error) {
	b.shapes = b.shapes[:0]
	for _, name := range b.w.shapes {
		sh, err := newShape(name)
		if err != nil {
			return nil, err
		}
		b.shapes = append(b.shapes, sh)
	}
	if !b.w.cold {
		var err error
		if b.warm, err = b.body(b.shapes[0], b.salt(0, false)); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	for i := range b.warmups() {
		sh, body, err := b.input(i, true)
		if err == nil {
			_, err = b.send(d, sh, body)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up %s: %w", sh.name, err), d.stop())
		}
	}
	return d, nil
}

// send posts one request and checks the reply against the pinned
// results, returning the simulated words it moved.
func (b *bench) send(d *daemon, sh *shape, body []byte) (int, error) {
	status, reply, err := d.post(b.w.path, body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
	}
	if b.w.path == "/v1/sweep" {
		var r server.SweepResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return 0, err
		}
		return b.exp.checkSweep(sh.name, r.Outcomes)
	}
	var r server.RunResponse
	if err := json.Unmarshal(reply, &r); err != nil {
		return 0, err
	}
	return r.WordsMoved, b.exp.checkRun(sh.name, &r)
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	latencies             []float64 // ns, one per attempted request
	attempted, ok, failed int
	words                 int
	elapsed               time.Duration
	allocBytes            uint64
	hits, misses, shed    int64
	entries               int   // cached scenarios when the phase starts
	evictions             int64 // cache evictions during the phase
	firstErr              error
}

func (p *phase) hitRatio() float64 {
	if p.hits+p.misses == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.hits+p.misses)
}

// timed runs the workload's closed loop against d for dur. A request
// started before the deadline runs to completion and counts.
func (b *bench) timed(d *daemon, dur time.Duration) (*phase, error) {
	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		p    phase
	)
	start := time.Now()
	deadline := start.Add(dur)
	for range b.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				sh, body, err := b.input(i, false)
				t := time.Now()
				words := 0
				if err == nil {
					words, err = b.send(d, sh, body)
				}
				lat := time.Since(t)
				mu.Lock()
				p.attempted++
				p.latencies = append(p.latencies, float64(lat))
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("request %d (%s): %w", i, sh.name, err)
					}
				} else {
					p.ok++
					p.words += words
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	p.hits = after.CacheHits - before.CacheHits
	p.misses = after.CacheMisses - before.CacheMisses
	p.shed = after.ShedRequests - before.ShedRequests
	p.entries = before.CacheEntries
	p.evictions = after.CacheEvictions - before.CacheEvictions
	return &p, nil
}

// selfCheck reports whether the timed phase exercised the path the
// workload claims: every request a cache miss on cold-analyze, a hit
// everywhere else. On cold-analyze the cache must also be full from
// the start, so that every miss evicts one entry. Failures are
// printed, not hidden.
func (b *bench) selfCheck(out io.Writer, p *phase) bool {
	ok := true
	if p.firstErr != nil {
		fmt.Fprintf(out, "FAIL   %d of %d requests failed; first: %v\n", p.failed, p.attempted, p.firstErr)
		ok = false
	}
	if got, want := p.hitRatio(), b.w.hitRatio(); got != want || p.hits+p.misses == 0 {
		fmt.Fprintf(out, "FAIL   cache hit ratio %v (%d hits, %d misses), %s requires exactly %v\n", got, p.hits, p.misses, b.w.name, want)
		ok = false
	}
	if b.w.cold && (p.entries != cacheSize || p.evictions != p.misses) {
		fmt.Fprintf(out, "FAIL   cache held %d of %d entries at the start and evicted %d times for %d misses; %s requires it full throughout\n", p.entries, cacheSize, p.evictions, p.misses, b.w.name)
		ok = false
	}
	return ok
}
