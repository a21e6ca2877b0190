package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"syscall"

	"repro/internal/belief"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/server"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	retailHot      = "retail_hot"
	pumsbCold      = "pumsb_cold"
	connectSampled = "connect_sampled"
	retailDelta    = "retail_delta"
)

var workloadNames = []string{retailHot, pumsbCold, connectSampled, retailDelta}

// deltaPass is the number of diffs one retail_delta pass times: about two
// seconds at this build, so a run fits several passes and finishing the
// one in progress adds little. The workload's chain is one pass long: the
// fill's diff, the warm-up's diffs, then these.
const deltaPass = 512

// streamLen is the number of releases or diffs generated per workload:
// enough for the warm-up and a 60-second run at several times this build's
// throughput. retail_hot repeats its one release, and retail_delta's chain
// is replayed in passes.
var streamLen = map[string]int{
	retailHot:      1,
	pumsbCold:      2400,
	connectSampled: 600,
	retailDelta:    1 + 64 + deltaPass,
}

// placeholderDigest stands in for a delta request's base digest until send
// time: table digests are 64 hex characters, so the body length is known
// when the request is encoded and the client only overwrites these bytes.
var placeholderDigest = strings.Repeat("0", 64)

// offHeap is memory the Go collector neither scans nor counts. The
// harness keeps its request and response bytes there, so sharing the
// process with riskd does not change how often riskd's heap is collected.
// Pages are reserved lazily: only the bytes written take memory.
type offHeap struct{ buf []byte }

func newOffHeap(size int) (*offHeap, error) {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", size, err)
	}
	return &offHeap{buf: b[:0]}, nil
}

// add copies p in and returns its offset, or false when the region is full.
func (m *offHeap) add(p []byte) (int, bool) {
	off := len(m.buf)
	if off+len(p) > cap(m.buf) {
		return 0, false
	}
	m.buf = append(m.buf, p...)
	return off, true
}

func (m *offHeap) free() error { return syscall.Munmap(m.buf[:cap(m.buf)]) }

// request locates one pre-encoded HTTP/1.1 request in its stream's memory.
type request struct {
	off, body, end int // request line at off, JSON body at body, end of both
	digestAt       int // offset of the base digest placeholder, or -1
}

// stream is a workload's generated input: a pure function of (workload,
// seed, length).
type stream struct {
	name string
	// fill is how many leading requests produce the first verdict: they
	// belong to set-up, never to the timed phase.
	fill int
	// repeat marks a stream that sends its last request over and over.
	repeat bool
	// passes marks a chained stream that the timed phase replays in whole
	// passes, each on a fresh server: every pass times the same diffs at
	// the same positions on the chain, however many passes a run fits.
	passes bool
	mem    *offHeap
	reqs   []request
	digest string
}

func (s *stream) raw(i int) []byte  { return s.mem.buf[s.reqs[i].off:s.reqs[i].end] }
func (s *stream) body(i int) []byte { return s.mem.buf[s.reqs[i].body:s.reqs[i].end] }

// cursor walks a stream in order; a repeating stream never ends.
type cursor struct {
	s    *stream
	next int // requests taken so far
}

func (c *cursor) done() bool { return !c.s.repeat && c.next >= len(c.s.reqs) }

func (c *cursor) take() int {
	i := min(c.next, len(c.s.reqs)-1)
	c.next++
	return i
}

// workloadSeed folds the workload name and an index into the run seed, so
// every workload and every release draws from its own deterministic stream.
func workloadSeed(name string, seed int64, i int) int64 {
	h := sha256.New()
	h.Write([]byte(name))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)) >> 1)
}

// generate builds a workload's stream of n releases or diffs from the
// Figure 9 plans. Free its memory with s.mem.free.
func generate(name string, seed int64, n int) (*stream, error) {
	var bodies []any
	s := &stream{name: name, fill: 1}
	switch name {
	case retailHot:
		// One release, assessed in recipe mode over and over: after the
		// fill every request is a cache hit.
		req, err := release(datagen.RETAIL, workloadSeed(name, seed, 0), false)
		if err != nil {
			return nil, err
		}
		s.repeat = true
		bodies = append(bodies, req)
	case pumsbCold, connectSampled:
		// A distinct release per request, so every request misses the
		// cache: recipe mode on PUMSB, the sampler on CONNECT.
		plan, attack := datagen.PUMSB, false
		if name == connectSampled {
			plan, attack = datagen.CONNECT, true
		}
		for i := 0; i < n; i++ {
			req, err := release(plan, workloadSeed(name, seed, i), attack)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, req)
		}
	case retailDelta:
		// One RETAIL base, then a digest-chained stream of small diffs.
		base, err := release(datagen.RETAIL, workloadSeed(name, seed, 0), false)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, base)
		for _, d := range diffChain(base.Dataset.Counts, base.Dataset.Transactions, workloadSeed(name, seed, 1), n) {
			bodies = append(bodies, &server.DeltaRequest{
				BaseDigest: placeholderDigest,
				Diff:       server.DiffSpec{DTransactions: d.DTransactions, Items: d.Items, Deltas: d.Deltas},
			})
		}
		s.fill = 2 // base registration plus the first diff
		s.passes = true
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}

	mem, err := newOffHeap(1 << 30)
	if err != nil {
		return nil, err
	}
	s.mem = mem
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d\n", name, seed, len(bodies))
	for _, b := range bodies {
		path := "/v1/assess"
		if _, ok := b.(*server.DeltaRequest); ok {
			path = "/v1/assess/delta"
		}
		r, err := s.encode(path, b)
		if err != nil {
			mem.free()
			return nil, err
		}
		s.reqs = append(s.reqs, r)
		h.Write(mem.buf[r.off:r.end])
	}
	s.digest = hex.EncodeToString(h.Sum(nil))
	return s, nil
}

// encode renders one POST into the stream's memory.
func (s *stream) encode(path string, v any) (request, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return request{}, err
	}
	head := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: riskd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	off, ok1 := s.mem.add(head)
	at, ok2 := s.mem.add(body)
	if !ok1 || !ok2 {
		return request{}, fmt.Errorf("request memory full after %d requests", len(s.reqs))
	}
	r := request{off: off, body: at, end: at + len(body), digestAt: -1}
	if i := bytes.Index(body, []byte(placeholderDigest)); i >= 0 {
		r.digestAt = at + i
	}
	return r, nil
}

// release draws one Figure 9 release as a recipe-mode request or, with
// attack set, as a sampled attack under the δ_med-wide compliant belief.
func release(plan datagen.GroupPlan, seed int64, attack bool) (*server.AssessRequest, error) {
	ft, err := plan.Counts(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	req := &server.AssessRequest{Dataset: server.DatasetRef{Transactions: ft.NTransactions, Counts: ft.Counts}}
	if attack {
		bf := belief.UniformWidth(ft.Frequencies(), dataset.GroupItems(ft).MedianGap())
		var text strings.Builder
		if err := belief.Write(&text, bf); err != nil {
			return nil, err
		}
		req.Belief = text.String()
		req.Simulate = true
	}
	return req, nil
}

// diffChain draws n diffs from the base's own profile. Each appends one
// transaction: its length is the base's mean transaction length (total
// count over transactions, rounded up or down at random so the mean holds
// exactly), and its distinct items are drawn with probability proportional
// to their base counts. Every frequency shifts, yet each item's expected
// frequency stays its base frequency, so the chain remains a release of
// the base's profile.
func diffChain(counts []int, transactions int, seed int64, n int) []*dataset.CountsDiff {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]int64, len(counts))
	var total int64
	support := 0
	for i, c := range counts {
		total += int64(c)
		cum[i] = total
		if c > 0 {
			support++
		}
	}
	mean := float64(total) / float64(transactions)
	diffs := make([]*dataset.CountsDiff, n)
	for i := range diffs {
		k := int(mean)
		if rng.Float64() < mean-float64(k) {
			k++
		}
		k = max(1, min(k, support))
		d := &dataset.CountsDiff{DTransactions: 1}
		for len(d.Items) < k {
			r := rng.Int63n(total)
			x := sort.Search(len(cum), func(j int) bool { return cum[j] > r })
			if !slices.Contains(d.Items, x) {
				d.Items = append(d.Items, x)
			}
		}
		sort.Ints(d.Items)
		for range d.Items {
			d.Deltas = append(d.Deltas, 1)
		}
		diffs[i] = d
	}
	return diffs
}

// decodeAssess and decodeDiff read a generated body back, for the library
// check.
func decodeAssess(body []byte) (*server.AssessRequest, error) {
	var req server.AssessRequest
	err := json.Unmarshal(body, &req)
	return &req, err
}

func decodeDiff(body []byte) (*dataset.CountsDiff, error) {
	var req server.DeltaRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return &dataset.CountsDiff{DTransactions: req.Diff.DTransactions, Items: req.Diff.Items, Deltas: req.Diff.Deltas}, nil
}
