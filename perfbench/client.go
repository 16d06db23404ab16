package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a keep-alive client holding one idle connection:
// a closed-loop client has one request in flight, so one connection is
// reused for the whole run. No proxy, no compression.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one request and reads the whole response. tier is the
// response's X-Cache header: which serving tier answered a read.
func post(hc *http.Client, base string, r request, id string) (status int, tier string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// client is one closed-loop load generator: it sends its stream's next
// request only after the previous response has been read.
type client struct {
	id     int
	hc     *http.Client
	base   string
	stream *stream
	traced bool

	lat       [numKinds][]float64       // ms, successful requests only
	done      [numKinds][]time.Duration // their completion, since the window start
	attempted [numKinds]int
	failed    [numKinds]int // transport errors + non-2xx
	transport [numKinds]int
	non2xx    [numKinds]int
	answered  [numKinds]int // responses received, any status

	samples []sample // read-cold: digests of checked reads

	deltaMicros int64 // Σ core delta time reported by acknowledged updates
	deltaGrams  int64 // Σ added+removed grams reported by them
	acked       int   // updates acknowledged (2xx)
	sent        int
	bodies      hash.Hash64 // fingerprint of every request sent
	prefix      uint64      // fingerprint of the first fingerprintPrefix requests
	spans       []clientSpan
	base0       time.Time
	err         error // generator failure; aborts the run
}

// fingerprintPrefix requests per client are always sent, so their
// fingerprint must be equal across runs with the same seed.
const fingerprintPrefix = 64

type sample struct {
	kind   kind
	qseed  int64
	tau    float64
	digest [sha256.Size]byte // of the response's answer bytes
}

type clientSpan struct {
	id         string
	kind       kind
	status     int
	start, end time.Duration // since the window start
}

func newClient(id int, base string, s *stream, traced bool, base0 time.Time) *client {
	return &client{id: id, hc: newHTTPClient(), base: base, stream: s, traced: traced, base0: base0, bodies: fnv.New64a()}
}

// run issues requests until stop is set.
func (c *client) run(stop *atomic.Bool) {
	defer c.hc.CloseIdleConnections()
	for !stop.Load() {
		r, err := c.stream.next()
		if err != nil {
			c.err = err
			return
		}
		c.fingerprint(r)
		c.attempted[r.kind]++
		rid := fmt.Sprintf("c%d-%d", c.id, c.sent)
		t0 := time.Now()
		status, _, body, err := post(c.hc, c.base, r, rid)
		t1 := time.Now()
		if c.traced {
			c.spans = append(c.spans, clientSpan{id: rid, kind: r.kind, status: status, start: t0.Sub(c.base0), end: t1.Sub(c.base0)})
		}
		switch {
		case err != nil:
			c.transport[r.kind]++
		case status < 200 || status > 299:
			c.answered[r.kind]++
			c.non2xx[r.kind]++
		default:
			c.answered[r.kind]++
		}
		if err != nil || status < 200 || status > 299 {
			c.failed[r.kind]++
			if r.kind == kindUpdate {
				// The server did not apply it: roll the model back.
				if uerr := r.log.Undo(r.doc.tree); uerr != nil {
					c.err = fmt.Errorf("undoing failed update of %s: %w", r.doc.id, uerr)
					return
				}
			}
			continue
		}
		c.lat[r.kind] = append(c.lat[r.kind], float64(t1.Sub(t0))/float64(time.Millisecond))
		c.done[r.kind] = append(c.done[r.kind], t1.Sub(c.base0))
		if r.kind == kindUpdate {
			var ack struct {
				Added, Removed int
				Micros         int64
			}
			if err := json.Unmarshal(body, &ack); err != nil {
				c.err = fmt.Errorf("decoding update response: %w", err)
				return
			}
			c.acked++
			c.deltaMicros += ack.Micros
			c.deltaGrams += int64(ack.Added + ack.Removed)
		} else if r.sample {
			ans, err := answerBytes(r.kind, body)
			if err != nil {
				c.err = err
				return
			}
			c.samples = append(c.samples, sample{kind: r.kind, qseed: r.qseed, tau: r.tau, digest: sha256.Sum256(ans)})
		}
	}
}

func (c *client) fingerprint(r request) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(r.path)+len(r.body)))
	c.bodies.Write(n[:])
	c.bodies.Write([]byte(r.path))
	c.bodies.Write(r.body)
	c.sent++
	if c.sent == fingerprintPrefix {
		c.prefix = c.bodies.Sum64()
	}
}

// quantile is the nearest-rank p-quantile of the successful latencies,
// with each failed request counted as an infinitely slow sample: a
// request that failed misses any latency limit.
func quantile(lat []float64, failed int, p float64) float64 {
	all := make([]float64, 0, len(lat)+failed)
	all = append(all, lat...)
	for i := 0; i < failed; i++ {
		all = append(all, math.Inf(1))
	}
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	i := int(math.Ceil(p*float64(len(all)))) - 1
	if i < 0 {
		i = 0
	}
	if math.IsInf(all[i], 1) {
		return math.MaxFloat64 // JSON has no infinity
	}
	return all[i]
}
