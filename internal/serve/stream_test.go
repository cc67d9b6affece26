package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ohminer"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestStreamLifecycle drives the full HTTP surface: create, register a
// standing query (plus an isomorphic duplicate), feed sequenced batches
// with retires, replay one idempotently, and check the inline deltas sum to
// the stream's total.
func TestStreamLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{StreamDir: dir, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/streams", `{"id": "s1", "num_vertices": 10}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	// Duplicate create refused.
	resp, _ = postJSON(t, ts.URL+"/streams", `{"id": "s1", "num_vertices": 10}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("dup create: %d", resp.StatusCode)
	}

	resp, body = postJSON(t, ts.URL+"/streams/s1/queries", `{"pattern": "0 1; 1 2"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var q ohminer.StreamQueryInfo
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	// Isomorphic literal: same standing query, 200 not 201.
	resp, body = postJSON(t, ts.URL+"/streams/s1/queries", `{"pattern": "5 3; 3 8"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("isomorphic register: %d %s", resp.StatusCode, body)
	}
	var q2 ohminer.StreamQueryInfo
	if err := json.Unmarshal(body, &q2); err != nil {
		t.Fatal(err)
	}
	if !q2.Existing || q2.ID != q.ID {
		t.Fatalf("not deduped: %+v vs %+v", q, q2)
	}

	feed := []string{
		`{"seq": 1, "add": [[0,1],[1,2]]}`,
		`{"seq": 2, "add": [[2,3],[3,4]]}`,
		`{"seq": 3, "add": [[4,5]], "retire": [[0,1]]}`,
	}
	var cum int64
	for i, b := range feed {
		resp, body = postJSON(t, ts.URL+"/streams/s1/batches", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i+1, resp.StatusCode, body)
		}
		var br StreamBatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if !br.Applied || len(br.Deltas) != 1 {
			t.Fatalf("batch %d: %+v", i+1, br)
		}
		cum += int64(br.Deltas[0].Added) - int64(br.Deltas[0].Retired)
	}

	// Replay of seq 2 is acked but not recounted.
	resp, body = postJSON(t, ts.URL+"/streams/s1/batches", feed[1])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: %d %s", resp.StatusCode, body)
	}
	var br StreamBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Applied {
		t.Fatal("replayed batch reported applied")
	}
	// A gapping seq is refused.
	resp, _ = postJSON(t, ts.URL+"/streams/s1/batches", `{"seq": 9, "add": [[6,7]]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("gap: %d", resp.StatusCode)
	}

	var status StreamStatus
	getJSON(t, ts.URL+"/streams/s1", &status)
	if status.Epoch != 3 || len(status.Queries) != 1 {
		t.Fatalf("status: %+v", status)
	}
	if int64(status.Queries[0].Total) != cum {
		t.Fatalf("deltas sum %d, total %d", cum, status.Queries[0].Total)
	}
}

// TestStreamLongPoll: the poll fallback backfills from the ring and waits
// for fresh events.
func TestStreamLongPoll(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{StreamDir: dir, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/streams", `{"id": "lp", "num_vertices": 8}`)
	_, body := postJSON(t, ts.URL+"/streams/lp/queries", `{"pattern": "0 1; 1 2"}`)
	var q ohminer.StreamQueryInfo
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/streams/lp/batches", `{"seq": 1, "add": [[0,1],[1,2]]}`)
	postJSON(t, ts.URL+"/streams/lp/batches", `{"seq": 2, "add": [[2,3]]}`)

	events := fmt.Sprintf("%s/streams/lp/queries/%d/events", ts.URL, q.ID)

	// Backfill: both past events, immediately.
	var env streamEventsEnvelope
	getJSON(t, events+"?poll=1&after=0&wait_ms=100", &env)
	if len(env.Events) != 2 || env.Events[0].Seq != 1 || env.Events[1].Seq != 2 {
		t.Fatalf("backfill: %+v", env)
	}
	// Nothing new after seq 2: empty answer after the wait.
	getJSON(t, events+"?poll=1&after=2&wait_ms=50", &env)
	if len(env.Events) != 0 {
		t.Fatalf("expected empty poll, got %+v", env)
	}
	// A waiter parked before the batch arrives gets it pushed.
	done := make(chan streamEventsEnvelope, 1)
	go func() {
		var e streamEventsEnvelope
		getJSON(t, events+"?poll=1&after=2&wait_ms=5000", &e)
		done <- e
	}()
	time.Sleep(50 * time.Millisecond)
	postJSON(t, ts.URL+"/streams/lp/batches", `{"seq": 3, "add": [[3,4]]}`)
	select {
	case e := <-done:
		if len(e.Events) != 1 || e.Events[0].Seq != 3 {
			t.Fatalf("pushed poll: %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never returned")
	}
}

// TestStreamSSE: events arrive over an SSE connection as they are applied,
// with ids carrying the per-query seq.
func TestStreamSSE(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{StreamDir: dir, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/streams", `{"id": "sse", "num_vertices": 8}`)
	_, body := postJSON(t, ts.URL+"/streams/sse/queries", `{"pattern": "0 1; 1 2"}`)
	var q ohminer.StreamQueryInfo
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/streams/sse/batches", `{"seq": 1, "add": [[0,1],[1,2]]}`)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/streams/sse/queries/%d/events?after=0", ts.URL, q.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Feed a second batch while subscribed.
	go func() {
		time.Sleep(50 * time.Millisecond)
		postJSON(t, ts.URL+"/streams/sse/batches", `{"seq": 2, "add": [[2,3]]}`)
	}()

	// Expect the backfilled event 1 then the live event 2.
	sc := bufio.NewScanner(resp.Body)
	var deltas []ohminer.StreamDelta
	var lastID string
	for sc.Scan() && len(deltas) < 2 {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			lastID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			var d ohminer.StreamDelta
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(d.Seq) != lastID {
				t.Fatalf("event id %s for delta seq %d", lastID, d.Seq)
			}
			deltas = append(deltas, d)
		}
	}
	if len(deltas) != 2 || deltas[0].Seq != 1 || deltas[1].Seq != 2 {
		t.Fatalf("deltas: %+v (scan err %v)", deltas, sc.Err())
	}
	if deltas[0].Added != 2 { // chain 0-1-2 in both orders
		t.Fatalf("event 1: %+v", deltas[0])
	}
}

// TestStreamSlowConsumerDrops: a subscriber whose buffer is full loses
// events (accounted) instead of stalling batch application.
func TestStreamSlowConsumerDrops(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{StreamDir: dir, Workers: 1, StreamBufEvents: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/streams", `{"id": "slow", "num_vertices": 8}`)
	_, body := postJSON(t, ts.URL+"/streams/slow/queries", `{"pattern": "0 1; 1 2"}`)
	var q ohminer.StreamQueryInfo
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}

	// Subscribe directly (no reader draining the channel) so the buffer
	// (capacity 1) overflows deterministically.
	st, err := s.getStream("slow")
	if err != nil {
		t.Fatal(err)
	}
	sub, _, unsub := st.subscribe(q.ID, 0, s.cfg.StreamBufEvents)
	for i := 1; i <= 4; i++ {
		postJSON(t, ts.URL+"/streams/slow/batches",
			fmt.Sprintf(`{"seq": %d, "add": [[%d,%d]]}`, i, i, i+1))
	}
	dropped := unsub()
	if dropped != 3 {
		t.Fatalf("dropped %d, want 3 (buffer 1, 4 events)", dropped)
	}
	if got := s.streamDropped.Value(); got != 3 {
		t.Fatalf("expvar dropped %d", got)
	}
	if len(sub.ch) != 1 {
		t.Fatalf("buffered %d", len(sub.ch))
	}
	if d := <-sub.ch; d.Seq != 1 {
		t.Fatalf("survivor seq %d", d.Seq)
	}
}

// TestStreamRestartReload: a second Server over the same StreamDir resumes
// the stream from its base and log — epoch, live edges, and cumulative query
// counters intact — and replayed batches ack idempotently; after
// CloseStreams a request reloads the stream again.
func TestStreamRestartReload(t *testing.T) {
	dir := t.TempDir()
	s1 := testServer(t, Config{StreamDir: dir, Workers: 1})
	ts1 := httptest.NewServer(s1.Handler())

	postJSON(t, ts1.URL+"/streams", `{"id": "dur", "num_vertices": 8, "window": 10}`)
	postJSON(t, ts1.URL+"/streams/dur/queries", `{"pattern": "0 1; 1 2"}`)
	postJSON(t, ts1.URL+"/streams/dur/batches", `{"seq": 1, "add": [[0,1],[1,2]]}`)
	postJSON(t, ts1.URL+"/streams/dur/batches", `{"seq": 2, "add": [[2,3]], "retire": [[0,1]]}`)
	var before StreamStatus
	getJSON(t, ts1.URL+"/streams/dur", &before)
	ts1.Close() // the "crash": nothing flushed beyond the per-batch log records

	s2 := testServer(t, Config{StreamDir: dir, Workers: 1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var after StreamStatus
	getJSON(t, ts2.URL+"/streams/dur", &after)
	if after.Epoch != before.Epoch || after.LiveEdges != before.LiveEdges {
		t.Fatalf("reload drifted: %+v vs %+v", after, before)
	}
	if len(after.Queries) != 1 || after.Queries[0].Total != before.Queries[0].Total {
		t.Fatalf("query counters drifted: %+v vs %+v", after.Queries, before.Queries)
	}

	// The feeder replays its log: seq 1,2 ack without recounting, seq 3
	// applies.
	for seq, wantApplied := range map[int]bool{1: false, 2: false} {
		resp, body := postJSON(t, ts2.URL+"/streams/dur/batches",
			fmt.Sprintf(`{"seq": %d, "add": [[0,1]]}`, seq))
		var br StreamBatchResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &br) != nil {
			t.Fatalf("replay seq %d: %d %s", seq, resp.StatusCode, body)
		}
		if br.Applied != wantApplied {
			t.Fatalf("replay seq %d: applied=%v", seq, br.Applied)
		}
	}
	resp, body := postJSON(t, ts2.URL+"/streams/dur/batches", `{"seq": 3, "add": [[3,4]]}`)
	var br StreamBatchResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &br) != nil {
		t.Fatalf("seq 3: %d %s", resp.StatusCode, body)
	}
	if !br.Applied || br.Epoch != 3 {
		t.Fatalf("seq 3: %+v", br)
	}
	if got := s2.streamsReloaded.Value(); got != 1 {
		t.Fatalf("streams_reloaded %d", got)
	}

	// CloseStreams releases the stream's files; the next request reloads
	// it from them, seq 3 included.
	if err := s2.CloseStreams(); err != nil {
		t.Fatal(err)
	}
	var closed StreamStatus
	getJSON(t, ts2.URL+"/streams/dur", &closed)
	if closed.Epoch != 3 || s2.streamsReloaded.Value() != 2 {
		t.Fatalf("after CloseStreams: epoch %d, streams_reloaded %d", closed.Epoch, s2.streamsReloaded.Value())
	}
}

// TestStreamDisabled: without StreamDir every stream endpoint answers 503.
func TestStreamDisabled(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/streams", `{"id": "x", "num_vertices": 4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/streams/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status: %d", resp.StatusCode)
	}
}

// TestStreamBadRequests: malformed inputs are rejected without touching
// stream state.
func TestStreamBadRequests(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{StreamDir: dir, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		url, body string
		want      int
	}{
		{"/streams", `{"id": "../evil", "num_vertices": 4}`, http.StatusBadRequest},
		{"/streams", `{"id": "ok"}`, http.StatusBadRequest}, // missing num_vertices
		{"/streams", `{"id": "ok", "num_vertices": 4, "bogus": 1}`, http.StatusBadRequest},
		{"/streams/absent/batches", `{"add": [[0,1]]}`, http.StatusNotFound},
		{"/streams/absent/queries", `{"pattern": "0 1"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: %d (%s), want %d", tc.url, tc.body, resp.StatusCode, body, tc.want)
		}
	}

	postJSON(t, ts.URL+"/streams", `{"id": "v", "num_vertices": 4}`)
	// Vertex out of range: batch refused, stream state untouched.
	resp, _ := postJSON(t, ts.URL+"/streams/v/batches", `{"seq": 1, "add": [[0,9]]}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad batch: %d", resp.StatusCode)
	}
	var status StreamStatus
	getJSON(t, ts.URL+"/streams/v", &status)
	if status.Epoch != 0 || status.LiveEdges != 0 {
		t.Fatalf("poisoned by bad batch: %+v", status)
	}
	// Labeled pattern refused for standing queries.
	resp, _ = postJSON(t, ts.URL+"/streams/v/queries", `{"pattern": "bogus ;;"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pattern: %d", resp.StatusCode)
	}
}
