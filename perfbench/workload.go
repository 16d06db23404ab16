package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pqgram/internal/edit"
	"pqgram/internal/gen"
	"pqgram/internal/serve"
	"pqgram/internal/tree"
	"pqgram/internal/xmlconv"
)

// kind is an operation kind; latencies and failures are kept per kind.
type kind int

const (
	kindLookup kind = iota // POST /lookup, threshold lookup
	kindTopK               // POST /topk
	kindUpdate             // POST /docs/{id}/edits
	numKinds
)

var kindNames = [numKinds]string{"lookup", "topk", "update"}

// Workload shape constants: these fix the traffic mix.
const (
	sampleEvery   = 16  // read-cold: one read in this many is answer-checked
	hotPool       = 64  // hot-mixed: distinct (query, τ | k) requests
	hotZipfS      = 1.1 // hot-mixed: Zipf exponent over the pool
	hotWriteEvery = 64  // hot-mixed: every Nth operation is an update
	editOps       = 3   // operations per edit-log update
	topK          = 5
	shadowDocs    = 32 // read-cold: documents its edit stream changes
	probeQueries  = 8  // final answer check: queries × (3 τ + top-k)
	warmQueries   = 4  // set-up warm-up: queries × (lookup + top-k)
)

var probeTaus = []float64{0.1, 0.3, 0.6}

// corpusSeed generates the corpus, read-cold's shadow documents and
// hot-mixed's request pool: one fixed dataset shared by every workload and
// run. --seed drives the traffic over it — which documents are queried
// and how they are perturbed, the edit scripts, the Zipf draws and the
// order of each client's operations.
const corpusSeed = 2006

// workload is one traffic mix over the shared corpus.
type workload struct {
	// segmented runs the server over a store.Segmented in a scratch
	// directory; otherwise the server is purely in-memory.
	segmented bool
	// shadow adds write-only documents for the edit stream, so the corpus
	// never changes and a seeded sample of reads is answer-checked
	// against a reference built from it.
	shadow bool
	// mix is one block of the traffic mix. Each client plays blocks one
	// after another, each in its own seeded shuffle, so the proportions
	// are exact.
	mix []slot
	// why is the one-line rationale repeated in BENCHMARK.json. It
	// states the configuration the workload runs under, so BENCHMARK.json
	// pins it.
	why string
}

// hot reports whether the workload draws reads from the hot pool.
func (w workload) hot() bool {
	for _, s := range w.mix {
		if s.hot {
			return true
		}
	}
	return false
}

// slot is one operation of a mix.
type slot struct {
	kind kind
	tau  float64 // threshold lookups
	hot  bool    // a read drawn from the hot pool
}

func repeat(n int, s slot) []slot {
	out := make([]slot, n)
	for i := range out {
		out[i] = s
	}
	return out
}

var workloads = map[string]workload{
	"read-cold": {
		shadow: true,
		// Three threshold lookups (τ 0.1/0.3/0.6) and a top-5 per edit;
		// every query is a fresh perturbation.
		mix: []slot{{kind: kindLookup, tau: 0.1}, {kind: kindLookup, tau: 0.3}, {kind: kindLookup, tau: 0.6}, {kind: kindTopK}, {kind: kindUpdate}},
		why: fmt.Sprintf("in-memory; closed-loop clients %d, default GOMAXPROCS; unique queries over %d docs miss the %d-entry cache, paying XML parse, profile build, planner and top-k; edits touch only shadow docs",
			clients, corpusDocs, cacheSize),
	},
	"hot-mixed": {
		mix: append(repeat(hotWriteEvery-1, slot{hot: true}), slot{kind: kindUpdate}),
		why: fmt.Sprintf("server as pqserve (cache %d, max-inflight %d, queue %d, plan auto, no p95 budget); Zipf reads over %d requests that fit the cache, every %dth op an edit that clears it: cache, HTTP, codec",
			cacheSize, maxInFlight, maxQueue, hotPool, hotWriteEvery),
	},
	"update-churn": {
		segmented: true,
		// Three updates per read; reads split τ=0.3 lookups and top-5s.
		mix: append(repeat(6, slot{kind: kindUpdate}), slot{kind: kindLookup, tau: 0.3}, slot{kind: kindTopK}),
		why: fmt.Sprintf("store.Segmented, sync off, flush every %d dirty docs; 3 of 4 ops are edit-log updates, reads merge the memtable with a growing set of segments: store, core, tier merge",
			flushEvery),
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// request is one generated operation.
type request struct {
	kind kind
	path string
	body []byte

	// Reads: the query's generation seed and parameters, so the answer
	// check can regenerate it, and whether this read is answer-checked.
	qseed  int64
	tau    float64
	sample bool

	// Updates: the client-owned document and the inverse log already
	// applied to its model; a failed update is undone with it.
	doc *modelDoc
	log edit.Log
}

// modelDoc is the benchmark's working copy of one document, mutated only
// by the client that owns it.
type modelDoc struct {
	id   string
	tree *tree.Tree
}

// inputs is everything generated before set-up.
type inputs struct {
	ids    []string     // every document the server indexes
	xml    []string     // their serialized form; set-up parses these
	corpus []*tree.Tree // initial corpus trees, read-only (query source)
	models []*modelDoc  // working trees, parallel to ids
	owned  [][]*modelDoc
	pool   []request // hot-mixed read pool
	seed   int64
}

// makeInputs generates the corpus and the per-client document ownership.
// Every document is round-tripped through xmlconv, so the trees the
// server parses equal the benchmark's model.
func makeInputs(cfg config, w workload) (*inputs, error) {
	in := &inputs{seed: cfg.Seed, owned: make([][]*modelDoc, clients)}
	add := func(id string, t *tree.Tree, owner int, corpus bool) error {
		x, err := xmlconv.WriteString(t)
		if err != nil {
			return err
		}
		m, err := xmlconv.ParseString(x, xmlconv.Options{})
		if err != nil {
			return err
		}
		d := &modelDoc{id: id, tree: m}
		in.ids = append(in.ids, id)
		in.xml = append(in.xml, x)
		in.models = append(in.models, d)
		if corpus {
			in.corpus = append(in.corpus, m.Clone())
		}
		if owner >= 0 {
			in.owned[owner] = append(in.owned[owner], d)
		}
		return nil
	}
	for i, t := range gen.XMarkForest(corpusSeed, cfg.Docs, cfg.Docs*cfg.DocNodes) {
		owner := i % clients
		if w.shadow {
			owner = -1 // read-cold never edits the corpus
		}
		if err := add(fmt.Sprintf("doc-%04d", i), t, owner, true); err != nil {
			return nil, err
		}
	}
	if w.shadow {
		for j := 0; j < cfg.ShadowDocs; j++ {
			t := gen.XMark(deriveSeed(corpusSeed, tagShadow, j), cfg.DocNodes)
			relabel(t)
			if err := add(fmt.Sprintf("shadow-%03d", j), t, j%clients, false); err != nil {
				return nil, err
			}
		}
	}
	for c := range in.owned {
		if len(in.owned[c]) == 0 {
			return nil, fmt.Errorf("client %d owns no documents", c)
		}
	}
	for j := 0; j < hotPool; j++ {
		// Three lookups per top-k, as in read-cold; rank 0, the hottest
		// request, is a lookup.
		var r request
		var err error
		if j%4 != 1 {
			r, err = in.lookupRequest(deriveSeed(corpusSeed, tagPool, j), 0.3)
		} else {
			r, err = in.topkRequest(deriveSeed(corpusSeed, tagPool, j))
		}
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, r)
	}
	return in, nil
}

// relabel gives every label of an XMark document a prefix no corpus label
// has, keeping element/attribute/text kinds. Such a document shares no
// pq-gram with the corpus (distance 1 to every query), so editing it
// changes no read answer.
func relabel(t *tree.Tree) {
	t.PreOrder(func(n *tree.Node) bool {
		l := n.Label()
		if strings.HasPrefix(l, "@") || strings.HasPrefix(l, "=") {
			l = l[:1] + "z" + l[1:]
		} else {
			l = "z" + l
		}
		t.Rename(n, l)
		return true
	})
}

// Seed tags keep every generated stream distinct: client streams use
// window×clients + client (below 1<<20), the rest a fixed tag.
const (
	tagShadow = 1 << 20
	tagPool   = 2 << 20
	tagWarm   = 3 << 20
	tagProbe  = 4 << 20
)

// deriveSeed mixes the run seed, a stream tag and an index (splitmix64).
func deriveSeed(seed int64, tag, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tag)<<32 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// queryXML regenerates a query: a perturbed copy of a corpus member with
// 1–5 XML-safe edits.
func (in *inputs) queryXML(qseed int64) (string, error) {
	rng := rand.New(rand.NewSource(qseed))
	base := in.corpus[rng.Intn(len(in.corpus))]
	q, _, err := gen.Perturb(rng, base, 1+rng.Intn(5), gen.XMLSafeMix)
	if err != nil {
		return "", err
	}
	return xmlconv.WriteString(q)
}

func (in *inputs) lookupRequest(qseed int64, tau float64) (request, error) {
	x, err := in.queryXML(qseed)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(serve.LookupRequest{XML: x, Tau: tau})
	return request{kind: kindLookup, path: "/lookup", body: body, qseed: qseed, tau: tau}, err
}

func (in *inputs) topkRequest(qseed int64) (request, error) {
	x, err := in.queryXML(qseed)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(serve.TopKRequest{XML: x, K: topK})
	return request{kind: kindTopK, path: "/topk", body: body, qseed: qseed}, err
}

// fixedReads is a set of reads from a dedicated seed stream: the set-up
// warm-up and the final answer probe.
func (in *inputs) fixedReads(tag, queries int, taus []float64) ([]request, error) {
	var out []request
	for j := 0; j < queries; j++ {
		qs := deriveSeed(in.seed, tag, j)
		for _, tau := range taus {
			r, err := in.lookupRequest(qs, tau)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		r, err := in.topkRequest(qs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// stream is one client's deterministic request sequence in one window:
// the i-th request depends only on the seed, the window and client
// indexes and i, never on timing, because each client edits only the
// documents it owns. Every window of a run draws fresh requests, so the
// run's latencies average over as many distinct queries as it sends.
type stream struct {
	in    *inputs
	c     int // client index: the owner of the documents it edits
	tag   int // seed tag: window×clients + client
	mix   []slot
	block []slot // the rest of the current shuffled block
	reads int    // reads generated so far
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func newStream(in *inputs, w workload, window, c int) *stream {
	tag := window*clients + c
	rng := rand.New(rand.NewSource(deriveSeed(in.seed, tag, 0)))
	return &stream{
		in: in, c: c, tag: tag, rng: rng, mix: w.mix,
		zipf: rand.NewZipf(rng, hotZipfS, 1, hotPool-1),
	}
}

func (s *stream) next() (request, error) {
	if len(s.block) == 0 {
		for _, i := range s.rng.Perm(len(s.mix)) {
			s.block = append(s.block, s.mix[i])
		}
	}
	sl := s.block[0]
	s.block = s.block[1:]
	switch {
	case sl.hot:
		return s.in.pool[s.zipf.Uint64()], nil
	case sl.kind == kindLookup:
		return s.lookup(sl.tau)
	case sl.kind == kindTopK:
		return s.topk()
	default:
		return s.update()
	}
}

func (s *stream) readSeed() (qseed int64, sample bool) {
	n := s.reads
	s.reads++
	return deriveSeed(s.in.seed, s.tag, n+1), (n+s.tag+int(s.in.seed&0xff))%sampleEvery == 0
}

func (s *stream) lookup(tau float64) (request, error) {
	qs, sample := s.readSeed()
	r, err := s.in.lookupRequest(qs, tau)
	r.sample = sample
	return r, err
}

func (s *stream) topk() (request, error) {
	qs, sample := s.readSeed()
	r, err := s.in.topkRequest(qs)
	r.sample = sample
	return r, err
}

// update applies a random XML-safe edit script to one of the client's own
// documents and encodes the paper's maintenance inputs: the resulting
// document, its node identities and the log of inverse operations.
func (s *stream) update() (request, error) {
	owned := s.in.owned[s.c]
	d := owned[s.rng.Intn(len(owned))]
	_, log, err := gen.RandomScript(s.rng, d.tree, editOps, gen.XMLSafeMix)
	if err != nil {
		return request{}, fmt.Errorf("editing %s: %w", d.id, err)
	}
	x, err := xmlconv.WriteString(d.tree)
	if err != nil {
		return request{}, err
	}
	lines := make([]string, len(log))
	for i, op := range log {
		lines[i] = op.String()
	}
	body, err := json.Marshal(serve.EditsRequest{XML: x, IDs: d.tree.PreorderIDs(), Log: lines})
	return request{kind: kindUpdate, path: "/docs/" + d.id + "/edits", body: body, doc: d, log: log}, err
}
