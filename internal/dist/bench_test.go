package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ctjam/internal/experiments"
)

// BenchmarkDistributedAllSweeps runs the full `-id all` workload through the
// HTTP coordinator protocol at 1 and 4 workers and reports, alongside
// wall-clock, how much training the fleet performed: trainings/op is the
// number of schemes trained anywhere in the fleet, trainslots/op the
// corresponding training slots (trainings x TrainSlots). Trainings equals
// the number of unique scheme keys regardless of worker count — the
// train-once contract. The DQN engine makes training the dominant
// per-scheme cost, so the trainings count is the perf story.
func BenchmarkDistributedAllSweeps(b *testing.B) {
	ids := experiments.IDs()
	o := experiments.Options{
		Slots:      200,
		Engine:     experiments.EngineDQN,
		TrainSlots: 400,
		Seed:       1,
		Workers:    1,
	}
	for _, nw := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", nw), func(b *testing.B) {
			var trainings, imports int64
			for i := 0; i < b.N; i++ {
				coord, err := NewCoordinator(o, ids, CoordinatorOptions{
					Lease:  time.Minute,
					Linger: time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				srv := httptest.NewServer(coord.Handler())
				workers := make([]*Worker, nw)
				var wg sync.WaitGroup
				for w := range workers {
					workers[w] = NewWorker(srv.URL, WorkerOptions{
						ID:           fmt.Sprintf("bench-%d", w),
						Workers:      1,
						PollInterval: 5 * time.Millisecond,
					})
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						workers[w].Run(context.Background())
					}(w)
				}
				if err := coord.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				srv.Close()
				for _, w := range workers {
					st := w.CacheStats()
					trainings += st.SchemeBuilds
					imports += st.SchemeImports
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(trainings)/n, "trainings/op")
			b.ReportMetric(float64(trainings)/n*float64(o.TrainSlots), "trainslots/op")
			b.ReportMetric(float64(imports)/n, "fetches/op")
		})
	}
}
