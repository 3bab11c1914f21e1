package streamlet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobigate/internal/msgpool"
	"mobigate/internal/queue"
)

// TestSerialFanInNeverOverlaps loads both input ports of a serial streamlet
// concurrently. Each port has its own run loop, so the loops must share the
// exec lock: Process never runs twice at once, and each port's messages
// leave in the order they arrived.
func TestSerialFanInNeverOverlaps(t *testing.T) {
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			var active, overlaps atomic.Int64
			proc := ProcessorFunc(func(in Input) ([]Emission, error) {
				if active.Add(1) > 1 {
					overlaps.Add(1)
				}
				time.Sleep(20 * time.Microsecond) // widen the window
				active.Add(-1)
				return []Emission{{Msg: in.Msg}}, nil
			})
			pool := msgpool.New(msgpool.ByReference)
			s := New("merge", nil, proc, pool)
			if err := s.SetBatch(batch); err != nil {
				t.Fatal(err)
			}
			ports := []string{"pa", "pb"}
			for _, p := range ports {
				s.SetIn(p, queue.New(p, queue.Options{}))
			}
			out := queue.New("out", queue.Options{CapacityBytes: 1 << 20})
			s.SetOut("po", out)
			s.Start()
			defer s.End()

			const n = 300
			var wg sync.WaitGroup
			for _, p := range ports {
				wg.Add(1)
				go func(p string) {
					defer wg.Done()
					q := s.In(p)
					for i := 0; i < n; i++ {
						m := textMsg(fmt.Sprintf("%s-%04d", p, i))
						pool.Put(m)
						if err := q.Post(m.ID, m.Len(), nil); err != nil {
							t.Errorf("post %s %d: %v", p, i, err)
							return
						}
					}
				}(p)
			}
			next := map[string]int{}
			for i := 0; i < 2*n; i++ {
				body := string(fetchMsg(t, pool, out, 5*time.Second).Body())
				p, seq, _ := strings.Cut(body, "-")
				if want := fmt.Sprintf("%04d", next[p]); seq != want {
					t.Fatalf("port %s delivered %s, want %s (per-port FIFO broken)", p, seq, want)
				}
				next[p]++
			}
			wg.Wait()
			if got := overlaps.Load(); got != 0 {
				t.Errorf("Process ran concurrently %d times on a serial streamlet", got)
			}
			if s.Processed() != 2*n {
				t.Errorf("processed = %d, want %d", s.Processed(), 2*n)
			}
		})
	}
}
