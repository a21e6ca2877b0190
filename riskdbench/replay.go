package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	anonrisk "repro"
	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/matching"
	"repro/internal/recipe"
	"repro/internal/riskcache"
	"repro/internal/server"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the replay started.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int
}

func (tr *tracer) begin(name string) int {
	if !tr.on {
		return -1
	}
	parent := -1
	if len(tr.open) > 0 {
		parent = tr.open[len(tr.open)-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent, Req: tr.req, Start: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, id)
	return id
}

func (tr *tracer) end(id int) {
	if id < 0 {
		return
	}
	tr.spans[id].End = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
}

// write saves the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-runs a stream in-process, calling each layer's public
// function in the order riskd's handlers do, with state of its own: a
// verdict cache, a table registry and one warm delta session.
type replayer struct {
	tr     *tracer
	split  bool // also re-call the inner functions of the compute step
	cache  *riskcache.Cache[*server.Outcome]
	tables *riskcache.Cache[*dataset.FrequencyTable]
	sessK  string
	sess   *recipe.DeltaSession
	digest string // the chain's last table digest
	out    bytes.Buffer
	// pending is the last computed request's split, run after its
	// request span closes.
	pending func() error
	replayCounts
}

// replayCounts are the bases of the replay's ratios, over timed requests.
type replayCounts struct {
	lookups, hits, verdicts, searched int
	bodyBytes                         int64
	proposals                         int64 // the split sampler's proposals
}

func newReplayer(tr *tracer, split bool) *replayer {
	return &replayer{
		tr:     tr,
		split:  split,
		cache:  riskcache.New[*server.Outcome](256),
		tables: riskcache.New[*dataset.FrequencyTable](64),
	}
}

// The cache-key options of the two kinds of request the streams send: every
// recipe request takes riskd's defaults, every attack simulates.
const (
	recipeKey = "recipe tau=0.1 runs=5 seed=1 comfort=0.5"
	attackKey = "attack simulate=true seed=1"
)

// do replays stream request i.
func (rp *replayer) do(s *stream, i int) error {
	rp.bodyBytes += int64(len(s.body(i)))
	if at := s.reqs[i].digestAt; at >= 0 {
		copy(s.mem.buf[at:], rp.digest)
		return rp.delta(s.body(i))
	}
	return rp.assess(s.body(i))
}

// lookup is the cache step both handlers share.
func (rp *replayer) lookup(key string, compute func(ctx context.Context) (*server.Outcome, error)) (*server.Outcome, riskcache.Source, error) {
	sp := rp.tr.begin("riskcache.lookup")
	defer rp.tr.end(sp)
	rp.lookups++
	o, src, err := rp.cache.GetOrCompute(context.Background(), key, func() (*server.Outcome, bool, error) {
		ctx, cancel := requestCtx()
		defer cancel()
		o, err := compute(ctx)
		if err != nil {
			return nil, false, err
		}
		return o, !o.Degraded, nil
	})
	if src == riskcache.Hit {
		rp.hits++
	}
	if err == nil {
		rp.verdicts++
		if o.Method == methodSearch {
			rp.searched++
		}
	}
	return o, src, err
}

func (rp *replayer) encode(v any) error {
	sp := rp.tr.begin("server.encode")
	defer rp.tr.end(sp)
	rp.out.Reset()
	enc := json.NewEncoder(&rp.out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func (rp *replayer) assess(body []byte) error {
	sp := rp.tr.begin("server.decode")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req server.AssessRequest
	err := dec.Decode(&req)
	rp.tr.end(sp)
	if err != nil {
		return err
	}

	sp = rp.tr.begin("dataset.table")
	ft, err := dataset.NewTable(req.Dataset.Transactions, req.Dataset.Counts)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	var bf *belief.Function
	if req.Belief != "" {
		sp = rp.tr.begin("belief.parse")
		bf, err = belief.Parse(strings.NewReader(req.Belief), ft.NItems)
		rp.tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp = rp.tr.begin("dataset.digest")
	digest := ft.Digest()
	rp.tr.end(sp)
	bdigest := ""
	if bf != nil {
		sp = rp.tr.begin("belief.digest")
		bdigest = bf.Digest()
		rp.tr.end(sp)
	}
	sp = rp.tr.begin("riskcache.lookup")
	opts := recipeKey
	if bf != nil {
		opts = attackKey
	}
	key := riskcache.Key(digest, bdigest, opts)
	rp.tables.Put(digest, ft)
	rp.tr.end(sp)

	var res *recipe.Result
	o, src, err := rp.lookup(key, func(ctx context.Context) (*server.Outcome, error) {
		if bf != nil {
			sp := rp.tr.begin("anonrisk.attack")
			rep, err := anonrisk.AttackTableCtx(ctx, bf, ft, anonrisk.AttackOptions{
				Simulate: req.Simulate,
				Rng:      rand.New(rand.NewSource(defaultSeed)),
			})
			rp.tr.end(sp)
			if err != nil {
				return nil, err
			}
			return attackOutcome(rep, bf, ft), nil
		}
		sp := rp.tr.begin("recipe.assess")
		var err error
		res, err = recipe.AssessRiskCtx(ctx, ft, recipeOptions())
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		return recipeOutcome(res), nil
	})
	if err != nil {
		return err
	}
	if err := rp.encode(server.AssessResponse{Cached: src == riskcache.Hit, Key: key, Digest: digest, Outcome: o}); err != nil {
		return err
	}
	rp.digest = digest
	if rp.split && src == riskcache.Computed {
		rp.pending = func() error { return rp.splitCompute(ft, bf, res, o) }
	}
	return nil
}

// splitCompute re-calls the public functions inside the compute step, each
// in its own span, under a root of its own: the sum of the split is
// reported beside the whole.
func (rp *replayer) splitCompute(ft *dataset.FrequencyTable, bf *belief.Function, res *recipe.Result, o *server.Outcome) error {
	root := rp.tr.begin("split")
	defer rp.tr.end(root)
	ctx, cancel := requestCtx()
	defer cancel()

	sp := rp.tr.begin("dataset.group")
	gr := dataset.GroupItems(ft)
	rp.tr.end(sp)
	if res != nil && res.Stage == recipe.StagePointValued {
		return nil
	}
	if bf == nil {
		sp = rp.tr.begin("belief.width")
		bf = belief.UniformWidth(ft.Frequencies(), gr.MedianGap())
		rp.tr.end(sp)
	}
	sp = rp.tr.begin("bipartite.build")
	g, err := bipartite.Build(bf, gr)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	sp = rp.tr.begin("core.oestimate")
	_, err = core.OEstimateGraphCtx(ctx, g, core.OEOptions{Propagate: true})
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	if o.Attack != nil {
		sp = rp.tr.begin("matching.estimate")
		est, err := matching.EstimateCracksCtx(ctx, g, matching.Config{}, rand.New(rand.NewSource(defaultSeed)))
		rp.tr.end(sp)
		if err != nil {
			return err
		}
		if est.Mean != o.Attack.Simulated {
			return fmt.Errorf("split sampler estimate %v, whole %v", est.Mean, o.Attack.Simulated)
		}
		rp.proposals += int64(len(est.RunMeans)) * sweepsPerRun(est.Samples) * int64(ft.NItems)
		return nil
	}
	if res.Stage != recipe.StageAlphaSearch {
		return nil
	}
	sp = rp.tr.begin("recipe.search_setup")
	search, err := recipe.NewAlphaSearch(ft, bf, defaultRuns, true, rand.New(rand.NewSource(defaultSeed)))
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	sp = rp.tr.begin("recipe.search")
	alpha, err := search.MaxAlphaWithinCtx(ctx, defaultTau*float64(ft.NItems), 1.0/64)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	if alpha != res.AlphaMax {
		return fmt.Errorf("split alpha search gives %v, whole %v", alpha, res.AlphaMax)
	}
	return nil
}

// The sampler's sweep schedule under matching.Config's defaults, which
// matching.Config.withDefaults fills but does not export; these mirror it.
const (
	seedSweeps     = 50  // burn-in sweeps after each (re-)seeding
	sampleGap      = 5   // sweeps between consecutive samples
	samplesPerSeed = 250 // samples drawn per seed
)

// sweepsPerRun is the sweeps one sampler run makes to draw the given
// samples: a burn-in per seed, then sampleGap sweeps per sample. Each sweep
// makes one proposal per item.
func sweepsPerRun(samples int) int64 {
	seeds := (samples + samplesPerSeed - 1) / samplesPerSeed
	return int64(seeds*seedSweeps + samples*sampleGap)
}

// delta replays one /v1/assess/delta request.
func (rp *replayer) delta(body []byte) error {
	sp := rp.tr.begin("server.decode")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req server.DeltaRequest
	err := dec.Decode(&req)
	rp.tr.end(sp)
	if err != nil {
		return err
	}

	sp = rp.tr.begin("riskcache.lookup")
	base, ok := rp.tables.Get(req.BaseDigest)
	rp.tr.end(sp)
	if !ok {
		return errors.New("replay: base digest not registered")
	}
	d := &dataset.CountsDiff{DTransactions: req.Diff.DTransactions, Items: req.Diff.Items, Deltas: req.Diff.Deltas}
	sp = rp.tr.begin("dataset.clone")
	applied := base.Clone()
	err = applied.ApplyDiff(d)
	rp.tr.end(sp)
	if err != nil {
		return err
	}
	sp = rp.tr.begin("dataset.digest")
	digest := applied.Digest()
	rp.tr.end(sp)
	sp = rp.tr.begin("riskcache.lookup")
	key := riskcache.Key(digest, "", recipeKey)
	rp.tables.Put(digest, applied)
	rp.tr.end(sp)

	o, src, err := rp.lookup(key, func(ctx context.Context) (*server.Outcome, error) {
		sp := rp.tr.begin("riskcache.lookup")
		sessK := riskcache.Key("session", base.Digest(), recipeKey)
		sess := rp.sess
		if sessK != rp.sessK {
			sess = nil
		}
		rp.sess = nil
		rp.tr.end(sp)
		if sess == nil {
			o := recipeOptions()
			o.Rng = nil
			sp := rp.tr.begin("recipe.session")
			var err error
			sess, err = recipe.NewDeltaSessionCtx(ctx, base, defaultSeed, o)
			rp.tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp = rp.tr.begin("recipe.delta")
		res, err := sess.ApplyDiffCtx(ctx, d)
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rp.tr.begin("dataset.digest")
		next := sess.Digest()
		rp.tr.end(sp)
		sp = rp.tr.begin("riskcache.lookup")
		rp.sess, rp.sessK = sess, riskcache.Key("session", next, recipeKey)
		rp.tr.end(sp)
		return recipeOutcome(res), nil
	})
	if err != nil {
		return err
	}
	rp.digest = digest
	return rp.encode(server.DeltaResponse{
		AssessResponse: server.AssessResponse{Cached: src == riskcache.Hit, Key: key, Digest: digest, Outcome: o},
		BaseDigest:     req.BaseDigest,
		Incremental:    true,
	})
}

// replayRun is one replay, stepped request by request.
type replayRun struct {
	s      *stream
	warm   int
	rp     *replayer
	tr     *tracer
	cur    cursor
	perReq []float64 // ms per timed request, split excluded
}

// startReplay replays a stream's fill and warm-up requests untimed.
func startReplay(s *stream, warm int, traced bool) (*replayRun, error) {
	tr := &tracer{on: traced, t0: time.Now()}
	r := &replayRun{s: s, warm: warm, rp: newReplayer(tr, traced), tr: tr}
	return r, r.pass()
}

// pass starts a pass over the stream on fresh replay state. Its fill and
// warm-up requests are neither traced nor counted.
func (r *replayRun) pass() error {
	kept, on := r.rp.replayCounts, r.tr.on
	r.rp = newReplayer(r.tr, r.rp.split)
	r.cur = cursor{s: r.s}
	r.tr.on = false
	for r.cur.next < r.s.fill+r.warm && !r.cur.done() {
		j := r.cur.take()
		if err := r.rp.do(r.s, j); err != nil {
			return fmt.Errorf("replay request %d: %w", j, err)
		}
		r.rp.pending = nil
	}
	r.rp.replayCounts, r.tr.on = kept, on
	return nil
}

// next starts a new pass when a stream that runs in passes has ended one.
func (r *replayRun) next() error {
	if !r.s.passes || !r.cur.done() {
		return nil
	}
	return r.pass()
}

// step replays the stream's next timed request, then its split.
func (r *replayRun) step() error {
	r.tr.req = len(r.perReq)
	j := r.cur.take()
	root := r.tr.begin("request")
	r0 := time.Now()
	err := r.rp.do(r.s, j)
	r.perReq = append(r.perReq, ms(time.Since(r0)))
	r.tr.end(root)
	if err == nil && r.rp.pending != nil {
		err = r.rp.pending()
		r.rp.pending = nil
	}
	if err != nil {
		return fmt.Errorf("replay request %d: %w", j, err)
	}
	return nil
}
