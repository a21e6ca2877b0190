package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/server"
)

// riskd is one in-process riskd: a fresh server.New behind a loopback
// listener, configured with riskd's flag defaults except one worker per
// assessment.
type riskd struct {
	srv  *http.Server
	addr string
	done chan error
}

func boot() (*riskd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := server.New(server.Config{
		Timeout:      30 * time.Second,
		CacheEntries: 256,
		Workers:      1,
	}).Handler()
	d := &riskd{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (d *riskd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// client is the one keep-alive connection the closed loop sends on.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer // the last response body
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// do writes one pre-encoded request and reads the whole response. The
// returned body is valid until the next call.
func (c *client) do(raw []byte) (int, []byte, error) {
	if _, err := c.conn.Write(raw); err != nil {
		return 0, nil, fmt.Errorf("write: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

func (c *client) close() { c.conn.Close() }

// digestKey precedes a response's table digest in riskd's indented JSON.
var digestKey = []byte(`"digest": "`)

// responseDigest extracts the table digest from a response body.
func responseDigest(body []byte) []byte {
	i := bytes.Index(body, digestKey)
	if i < 0 || len(body) < i+len(digestKey)+64 {
		return nil
	}
	return body[i+len(digestKey) : i+len(digestKey)+64]
}

// sender walks a stream in order, splicing each delta request's base digest
// from the previous response, as a client chaining releases would.
type sender struct {
	cursor
	digest []byte // the last table digest answered
}

// cost is what one request took, from its write to its last response
// byte: wall-clock time, and the process's CPU time over that interval.
// Hypervisor steal and waits for a CPU land in the wall time; the CPU time
// counts only the work the process did: riskd's, its collector's and the
// client's.
type cost struct{ wall, cpu time.Duration }

// send issues the stream's next request and returns its status, its body
// (valid until the next send) and its cost.
func (sn *sender) send(c *client) (int, []byte, cost, error) {
	i := sn.take()
	if at := sn.s.reqs[i].digestAt; at >= 0 && sn.digest != nil {
		copy(sn.s.mem.buf[at:], sn.digest)
	}
	cpu0, t0 := cpuTime(), time.Now()
	status, body, err := c.do(sn.s.raw(i))
	k := cost{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	if err == nil && status == http.StatusOK {
		if d := responseDigest(body); d != nil {
			sn.digest = append(sn.digest[:0], d...)
		}
	}
	return status, body, k, err
}

// fillOnce reports what it takes from a fresh server.New to the stream's
// first verdict, in wall-clock and in process CPU time.
func fillOnce(s *stream) (cost, error) {
	runtime.GC()
	cpu0, t0 := cpuTime(), time.Now()
	l, err := open(s, s.fill)
	if err != nil {
		return cost{}, err
	}
	k := cost{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	return k, l.close()
}

// reply locates one timed response in the phase's memory.
type reply struct {
	status   int
	idx      int // the stream request it answers
	off, end int
}

// timed holds the responses of a closed loop, for the correctness check,
// and what the timed phase measured.
type timed struct {
	lat     []float64 // wall-clock ms, in send order
	cpuLat  []float64 // process CPU ms, in send order
	replies []reply
	errs    map[int]error // transport failures, by timed index
	mem     *offHeap      // response bodies
	passes  int           // servers booted for the phase
	wall    time.Duration // timed requests only, as are cpu and rt
	cpu     time.Duration
	rt      runtimeDelta
	heaps   []float64 // retained MiB, one per pass
}

func (t *timed) body(i int) []byte { return t.mem.buf[t.replies[i].off:t.replies[i].end] }

// loop is one client's closed loop against a fresh server.
type loop struct {
	s    *stream
	warm int
	d    *riskd
	c    *client
	sn   *sender
	t    *timed
}

// open boots a fresh server, dials it and sends the stream's first n
// requests, each of which must answer 200.
func open(s *stream, n int) (*loop, error) {
	d, err := boot()
	if err != nil {
		return nil, err
	}
	c, err := dial(d.addr)
	if err != nil {
		d.stop()
		return nil, err
	}
	l := &loop{s: s, d: d, c: c, sn: &sender{cursor: cursor{s: s}}}
	for l.sn.next < n && !l.sn.done() {
		status, body, _, err := l.sn.send(c)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("untimed request %d: HTTP %d: %s", l.sn.next-1, status, body)
		}
		if err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

// startLoop opens a loop through the fill and warm-up requests. Close the
// loop, then free t.mem once the responses are checked.
func startLoop(s *stream, warm int) (*loop, error) {
	mem, err := newOffHeap(1 << 30)
	if err != nil {
		return nil, err
	}
	l := &loop{s: s, warm: warm, t: &timed{mem: mem, errs: map[int]error{}}}
	if err := l.pass(); err != nil {
		mem.free()
		return nil, err
	}
	return l, nil
}

// pass boots a fresh server and takes it through the fill and warm-up
// requests. It measures the retained heap there, after a fixed number of
// requests, so the figure does not depend on how many requests a timed
// phase fits.
func (l *loop) pass() error {
	for _, r := range l.s.reqs {
		if r.digestAt >= 0 {
			copy(l.s.mem.buf[r.digestAt:], placeholderDigest)
		}
	}
	runtime.GC()
	runtime.GC()
	base := liveHeap()
	o, err := open(l.s, l.s.fill+l.warm)
	if err != nil {
		return err
	}
	l.d, l.c, l.sn = o.d, o.c, o.sn
	runtime.GC()
	runtime.GC()
	// The client's buffers are the harness's, not the server's.
	own := int64(l.c.br.Size()) + int64(l.c.body.Cap()) + int64(cap(l.sn.digest))
	l.t.heaps = append(l.t.heaps, float64(liveHeap()-base-own)/(1<<20))
	l.t.passes++
	return nil
}

// next starts a new pass when a stream that runs in passes has ended one.
func (l *loop) next() error {
	if !l.s.passes || !l.sn.done() {
		return nil
	}
	if err := l.close(); err != nil {
		return err
	}
	return l.pass()
}

// close stops the pass's server and drops it, so the next pass's heap base
// does not count it. Closing a closed loop does nothing.
func (l *loop) close() error {
	if l.d == nil {
		return nil
	}
	l.c.close()
	err := l.d.stop()
	l.d, l.c = nil, nil
	return err
}

// step sends the stream's next request and keeps its response. It reports
// false when the stream or the response memory has run out.
func (l *loop) step() bool {
	if l.sn.done() {
		return false
	}
	idx := min(l.sn.next, len(l.s.reqs)-1)
	status, body, k, err := l.sn.send(l.c)
	t := l.t
	off, ok := t.mem.add(body)
	if !ok {
		return false
	}
	if err != nil {
		t.errs[len(t.replies)] = err
	}
	t.replies = append(t.replies, reply{status: status, idx: idx, off: off, end: off + len(body)})
	t.lat = append(t.lat, ms(k.wall))
	t.cpuLat = append(t.cpuLat, ms(k.cpu))
	return true
}

// run measures the closed loop for the given duration, or until a stream
// that does not run in passes ends: latency, process CPU and the runtime's
// counters, over the timed requests only. A stream that runs in passes is
// timed in whole passes: the pass in progress when the time is up is
// finished, and the fill and warm-up of each new pass are not timed.
func (l *loop) run(dur time.Duration) error {
	t := l.t
	var spent time.Duration
	for {
		rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
		for (l.s.passes || spent+time.Since(t0) < dur) && l.step() {
		}
		spent += time.Since(t0)
		t.cpu += cpuTime() - cpu0
		t.rt = t.rt.add(readRuntime().sub(rt0))
		if spent >= dur || !l.s.passes || !l.sn.done() {
			break
		}
		if err := l.next(); err != nil {
			return err
		}
	}
	t.wall += spent
	if len(t.replies) == 0 {
		return fmt.Errorf("no request completed in the %v timed phase", dur)
	}
	return nil
}

// runTimed starts a loop, measures it for the given duration and closes
// it. Free the responses with t.mem.free.
func runTimed(s *stream, warm int, dur time.Duration) (*timed, error) {
	l, err := startLoop(s, warm)
	if err != nil {
		return nil, err
	}
	err = l.run(dur)
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.t.mem.free()
		return nil, err
	}
	return l.t, nil
}
