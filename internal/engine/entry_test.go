package engine_test

// Every way into a run counts the same: a fresh run, a resumed frontier, a
// seeded run and a cluster job all start from a frontier of
// checkpoint.Tasks, so on every small shape they must agree exactly. An
// external test package, because the cluster layer imports this one.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ohminer/internal/checkpoint"
	"ohminer/internal/cluster"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// TestEntryPointsAgree runs every connected shape of at most three
// hyperedges through MineWithPlanContext, ResumeWithPlanContext over
// Frontier(store, plan, k) for k = 1, 3 and 16, MineSeeded over every
// first-position candidate, and a cluster job (StartJob, one in-process
// worker), and requires identical Ordered and Unique counts.
func TestEntryPointsAgree(t *testing.T) {
	store := dal.Build(engine.RandHypergraph(rand.New(rand.NewSource(41)), false))
	coord, err := cluster.New(store, cluster.Config{LeaseTTL: 10 * time.Second, Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: srv.URL, Name: "w", Store: store,
		Poll: 5 * time.Millisecond, Engine: engine.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	defer func() { cancel(); <-done }()

	opts := engine.Options{Workers: 2}
	jobs, matched := 0, 0
	for k := 1; k <= 3; k++ {
		shapes, err := pattern.EnumerateShapes(k, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shapes {
			p, err := s.Pattern()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := engine.CompilePlan(store, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.MineWithPlanContext(context.Background(), store, plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want.Ordered > 0 {
				matched++
			}
			check := func(how string, ordered, unique uint64) {
				t.Helper()
				if ordered != want.Ordered || unique != want.Unique {
					t.Fatalf("shape %s, %s: ordered/unique %d/%d, MineWithPlanContext %d/%d", s.Key(), how, ordered, unique, want.Ordered, want.Unique)
				}
			}
			var seeds []uint32
			for _, parts := range []int{1, 3, 16} {
				fr := engine.Frontier(store, plan, parts)
				if parts == 1 && len(fr) == 1 {
					seeds = fr[0].Cands
				}
				snap := &checkpoint.Snapshot{
					PlanFP:   engine.PlanFingerprint(plan),
					GraphFP:  store.Hypergraph().Fingerprint(),
					Frontier: fr,
				}
				res, err := engine.ResumeWithPlanContext(context.Background(), store, plan, snap, opts)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("resumed from a %d-part frontier", parts), res.Ordered, res.Unique)
			}
			res, err := engine.MineSeeded(store, plan, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			check("seeded", res.Ordered, res.Unique)

			jobs++
			id := fmt.Sprintf("j%d", jobs)
			if _, err := coord.StartJob(id, cluster.JobSpec{Pattern: p.String()}); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
				st, _ := coord.JobStatusByID(id)
				if st.State == "done" {
					check("cluster job", st.Ordered, st.Unique)
					break
				}
				if st.State == "failed" || time.Now().After(deadline) {
					t.Fatalf("shape %s: cluster job %s: %+v", s.Key(), st.State, st)
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no shape matches the data: the fixture tells the entry points apart on nothing")
	}
	t.Logf("%d shapes (%d with embeddings) agree on every entry point", jobs, matched)
}
