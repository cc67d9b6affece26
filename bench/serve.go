package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"ohminer"
	"ohminer/internal/engine"
	"ohminer/internal/pattern"
	"ohminer/internal/serve"
)

// The three paths of POST /query, by how much of the work is cached.
const (
	classCold = iota // first touch: parse, canonicalize, compile, mine
	classPlan        // known pattern with a limit: cached plan, engine runs
	classHit         // known pattern, no limit: answered from the result cache
)

var classSpan = [...]string{"serve.cold", "serve.plan", "serve.hit"}

const (
	serveRequests = 5000 // per round
	serveColdStep = 25   // every 25th request introduces a new pattern: 200 = 4 % cold
	serveLimit    = 1000 // "limit" of the plan-cached class; bypasses the result cache
	serveZipfS    = 1.1
)

// serveReq is one request of the script.
type serveReq struct {
	query serve.QueryRequest
	body  []byte // query as JSON
	entry int    // catalogue index
	class int
}

// serveInst replays a query mix against a fresh Session and Server per round,
// over loopback HTTP, from one closed-loop client.
type serveInst struct {
	ds      *dataset
	entries []catalogEntry
	script  []serveReq

	rejected float64 // the server's own counter after the last traced round
}

// classAt fixes the class of every script position, whatever the seed: the
// cold requests sit at multiples of serveColdStep and 26 in 96 of the others
// carry a limit, spread evenly.
func classAt(pos int) int {
	if pos%serveColdStep == 0 {
		return classCold
	}
	warm := pos - pos/serveColdStep - 1 // index among the non-cold requests
	if (warm*26)%96 < 26 {
		return classPlan
	}
	return classHit
}

func setupServeMix(e *env) (instance, error) {
	ds, err := presetDataset(e, "CH")
	if err != nil {
		return nil, err
	}
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	entries, err := cat.entries("serve_mix", e, 8)
	if err != nil {
		return nil, err
	}
	in := &serveInst{ds: ds, entries: entries}
	return in, in.buildScript(rngFor(e.seed, "serve_mix"))
}

// buildScript generates the seed's requests.
func (in *serveInst) buildScript(rng *rand.Rand) error {
	entries := in.entries
	n := len(entries) * serveColdStep
	// Popularity follows the catalogue order: entry k is introduced by the
	// k-th cold request and has Zipf weight (1+k)^-s. How often each pattern
	// is asked for in each class is fixed, so that every seed's round is the
	// same work; the seed decides in which order, and how each request is
	// written.
	var positions [len(classSpan)]int
	for pos := 0; pos < n; pos++ {
		positions[classAt(pos)]++
	}
	weights := make([]float64, len(entries))
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -serveZipfS)
	}
	left := [len(classSpan)][]int{
		classPlan: apportion(positions[classPlan], weights),
		classHit:  apportion(positions[classHit], weights),
	}
	for pos := 0; pos < n; pos++ {
		class := classAt(pos)
		entry := pos / serveColdStep
		if class != classCold {
			// One of the requests still to be sent for the patterns known so
			// far, each equally likely. There always is one: the weights fall
			// with k, so the known patterns' share of the requests is never
			// behind the share of the positions gone by.
			known := left[class][:pos/serveColdStep+1]
			pick := rng.Intn(sumInts(known))
			for entry = 0; pick >= known[entry]; entry++ {
				pick -= known[entry]
			}
			known[entry]--
		}
		lit, err := isomorphicLiteral(entries[entry].Pattern, rng)
		if err != nil {
			return err
		}
		q := serve.QueryRequest{Pattern: lit}
		if class == classPlan {
			q.Limit = serveLimit
		}
		body, err := json.Marshal(q)
		if err != nil {
			return err
		}
		in.script = append(in.script, serveReq{query: q, body: body, entry: entry, class: class})
	}
	return nil
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// apportion splits total into whole shares proportional to weights, by
// largest remainder.
func apportion(total int, weights []float64) []int {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	shares := make([]int, len(weights))
	rest := make([]float64, len(weights))
	order := make([]int, len(weights))
	given := 0
	for i, w := range weights {
		exact := float64(total) * w / wsum
		shares[i] = int(exact)
		rest[i] = exact - float64(shares[i])
		order[i] = i
		given += shares[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return rest[order[a]] > rest[order[b]] })
	for _, i := range order[:total-given] {
		shares[i]++
	}
	return shares
}

// checkQuery reports whether a response carries the catalogue's counts. A
// run cut short by the limit must have counted at least the limit.
func (in *serveInst) checkQuery(r serveReq, ordered, unique uint64, truncated bool) bool {
	want := in.entries[r.entry]
	if truncated {
		return r.class == classPlan && ordered >= serveLimit && ordered <= want.Ordered
	}
	return ordered == want.Ordered && unique == want.Unique
}

// listenAndServe serves h on a loopback port until the returned stop
// function is called; stop waits for the server to end and may be called
// again.
func listenAndServe(h http.Handler) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once stop has closed srv
	}()
	stop = func() error {
		err := srv.Close()
		<-done
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// postJSON posts body and decodes a 2xx JSON answer into out.
func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (in *serveInst) round(tr *tracer) (roundOut, error) {
	sess := ohminer.NewSession(in.ds.store)
	srv := serve.New(sess, serve.Config{Workers: 1})
	base, stop, err := listenAndServe(srv.Handler())
	if err != nil {
		return roundOut{}, err
	}
	defer stop()
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}

	out := newRoundOut(len(in.script))
	for i, r := range in.script {
		sp := tr.begin(classSpan[r.class], rootSpan, i)
		var resp serve.QueryResponse
		t0 := startOp()
		err := postJSON(client, base+"/query", r.body, &resp)
		out.stop(i, t0)
		tr.end(sp)
		if err != nil || !in.checkQuery(r, resp.Ordered, resp.Unique, resp.Truncated) {
			out.failed++
		}
	}
	if tr != nil {
		var vars struct {
			Ohmserve struct {
				Rejected float64 `json:"rejected"`
			} `json:"ohmserve"`
		}
		if err := getJSON(client, base+"/debug/vars", &vars); err != nil {
			return out, err
		}
		in.rejected = vars.Ohmserve.Rejected
	}
	return out, stop()
}

func (in *serveInst) layers(tr *tracer, m metrics) error {
	in.ds.metrics(m)
	m["serve.cold_p50_ms"] = ms(median(tr.durations("serve.cold")))
	m["serve.plan_p50_us"] = us(median(tr.durations("serve.plan")))
	m["serve.hit_p50_us"] = us(median(tr.durations("serve.hit")))
	m["serve.rejected"] = in.rejected
	root := tr.spans[rootSpan]
	m["serve.req_per_s"] = float64(len(in.script)) / (time.Duration(root.End - root.Start)).Seconds()

	// The same script on the Session, without HTTP and JSON: what is left of
	// each class is the server's own share.
	sess := ohminer.NewSession(in.ds.store)
	byClass := make([][]time.Duration, len(classSpan))
	var parse, canon []time.Duration
	for i, r := range in.script {
		q := r.query
		t0 := time.Now()
		p, err := ohminer.ParsePattern(q.Pattern)
		t1 := time.Now()
		if err != nil {
			return err
		}
		res, err := sess.MineContext(context.Background(), p,
			ohminer.WithDeadline(10*time.Second), ohminer.WithLimit(q.Limit), ohminer.WithWorkers(1))
		byClass[r.class] = append(byClass[r.class], time.Since(t0))
		if err != nil {
			return err
		}
		if !in.checkQuery(r, res.Ordered, res.Unique, res.Truncated) {
			return fmt.Errorf("session replay: request %d (%s) counted %d/%d", i, q.Pattern, res.Ordered, res.Unique)
		}
		parse = append(parse, t1.Sub(t0))
		t0 = time.Now()
		if _, ok := pattern.CanonicalKey(p); !ok {
			return fmt.Errorf("pattern %q has no canonical key", q.Pattern)
		}
		canon = append(canon, time.Since(t0))
	}
	m["pattern.parse_us"] = us(median(parse))
	m["pattern.canon_us"] = us(median(canon))
	m["session.cold_ms"] = ms(median(byClass[classCold]))
	m["session.planhit_us"] = us(median(byClass[classPlan]))
	m["session.resulthit_us"] = us(median(byClass[classHit]))
	m["serve.http_overhead_us"] = m["serve.hit_p50_us"] - m["session.resulthit_us"]
	hits, misses := sess.CacheStats()
	m["session.plan_hits"], m["session.plan_misses"] = float64(hits), float64(misses)
	hits, misses = sess.ResultCacheStats()
	m["session.result_hits"], m["session.result_misses"] = float64(hits), float64(misses)

	// The compiler on the catalogue's canonical patterns, and the engine on
	// the tiny limited runs of the plan-cached class.
	plans := make([]*ohminer.Plan, len(in.entries))
	var compile []time.Duration
	planOps, restricted := 0, 0
	o := engine.Options{Workers: 1}
	for i, ce := range in.entries {
		p, err := ohminer.ParsePattern(ce.Pattern)
		if err != nil {
			return err
		}
		cp, ok := pattern.Canonical(p)
		if !ok {
			return fmt.Errorf("pattern %q has no canonical form", ce.Pattern)
		}
		t0 := time.Now()
		plans[i], err = engine.CompilePlan(in.ds.store, cp, o)
		compile = append(compile, time.Since(t0))
		if err != nil {
			return err
		}
		for _, n := range plans[i].NumOps() {
			planOps += n
		}
		if plans[i].Restricted {
			restricted++
		}
	}
	m["oig.compile_us"] = us(median(compile))
	m["oig.plan_ops"] = float64(planOps)
	m["oig.restricted_share"] = float64(restricted) / float64(len(plans))
	o.Limit = serveLimit
	var tinyRuns []time.Duration
	var st ohminer.Stats
	var ordered uint64
	var elapsed time.Duration
	for _, r := range in.script {
		if r.class != classPlan {
			continue
		}
		t0 := time.Now()
		res, err := engine.MineWithPlanContext(context.Background(), in.ds.store, plans[r.entry], o)
		tinyRuns = append(tinyRuns, time.Since(t0))
		if err != nil {
			return err
		}
		st.Add(res.Stats)
		ordered += res.Ordered
		elapsed += res.Elapsed
	}
	m["engine.tiny_run_us"] = us(median(tinyRuns))
	engineMetrics(st, ordered, elapsed, m)
	return nil
}

func (in *serveInst) close() error { return nil }
