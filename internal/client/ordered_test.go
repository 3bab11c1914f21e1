package client

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mobigate/internal/mime"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

// slowFirst is a peer that delays the message whose body matches `hold`,
// forcing the multi-threaded distributor to finish messages out of order.
type slowFirst struct {
	gate chan struct{}
	hold string
}

func (s *slowFirst) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	if string(in.Msg.Body()) == s.hold {
		<-s.gate
	}
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}

func seqMsg(i int) *mime.Message {
	m := mime.NewMessage(services.TypePlainText, []byte(fmt.Sprintf("payload-%02d", i)))
	m.SetHeader("X-Seq", strconv.Itoa(i))
	m.PushPeer("slow/first")
	return m
}

func TestOrderedDeliveryRestoresSequence(t *testing.T) {
	sf := &slowFirst{gate: make(chan struct{}), hold: "payload-00"}
	dir := streamlet.NewDirectory()
	dir.Register("slow/first", func() streamlet.Processor { return sf })

	var mu sync.Mutex
	var got []string
	c := New(Options{Peers: dir, Distributors: 4, Ordered: true}, func(m *mime.Message) {
		mu.Lock()
		got = append(got, string(m.Body()))
		mu.Unlock()
		if m.Header("X-Seq") != "" {
			t.Error("sequence header leaked to application")
		}
	})

	var wg sync.WaitGroup
	// Message 0 blocks inside the peer; 1 and 2 finish first.
	c.Dispatch(seqMsg(0), &wg)
	c.Dispatch(seqMsg(1), &wg)
	c.Dispatch(seqMsg(2), &wg)
	// Give 1 and 2 time to complete, then release 0.
	waitProcessed(t, c, 2)
	mu.Lock()
	if len(got) != 0 {
		t.Fatalf("messages delivered before sequence head: %v", got)
	}
	mu.Unlock()
	close(sf.gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := []string{"payload-00", "payload-01", "payload-02"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestOrderedDeliverySkipsFailedSlot(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterClientPeers(dir)

	var mu sync.Mutex
	var got []string
	c := New(Options{Peers: dir, Ordered: true, ErrorHandler: func(error) {}},
		func(m *mime.Message) {
			mu.Lock()
			got = append(got, string(m.Body()))
			mu.Unlock()
		})

	var wg sync.WaitGroup
	// Slot 0 names an unknown peer and fails; 1 and 2 must still deliver.
	bad := mime.NewMessage(services.TypePlainText, []byte("bad"))
	bad.SetHeader("X-Seq", "0")
	bad.PushPeer("ghost/peer")
	c.Dispatch(bad, &wg)
	wg.Wait()
	for i := 1; i <= 2; i++ {
		m := mime.NewMessage(services.TypePlainText, []byte(fmt.Sprintf("ok-%d", i)))
		m.SetHeader("X-Seq", strconv.Itoa(i))
		c.Dispatch(m, &wg)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "ok-1" || got[1] != "ok-2" {
		t.Errorf("got %v", got)
	}
}

func TestUnstampedMessagesBypassOrdering(t *testing.T) {
	dir := streamlet.NewDirectory()
	var count int
	var mu sync.Mutex
	c := New(Options{Peers: dir, Ordered: true}, func(m *mime.Message) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	c.Dispatch(mime.NewMessage(services.TypePlainText, []byte("free")), &wg)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Errorf("unstamped message not delivered (count=%d)", count)
	}
}

func waitProcessed(t *testing.T, c *Client, n uint64) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if p, _ := c.Stats(); p >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("processing stalled")
}

// TestOrderedDeliveryStrictUnderConcurrency: with four distributors racing
// to finish, the handler must still see X-Seq strictly increasing — only
// one goroutine may hand the ready run to the handler at a time.
func TestOrderedDeliveryStrictUnderConcurrency(t *testing.T) {
	const n = 10000
	dir := streamlet.NewDirectory()
	dir.Register("pass/through", func() streamlet.Processor { return passThrough{} })
	var mu sync.Mutex
	var got []int
	inHandler := 0
	c := New(Options{Peers: dir, Distributors: 4, Ordered: true}, func(m *mime.Message) {
		mu.Lock()
		inHandler++
		overlap := inHandler > 1
		mu.Unlock()
		if overlap {
			t.Error("handler ran on two goroutines at once")
		}
		i, _ := strconv.Atoi(strings.TrimPrefix(string(m.Body()), "m-"))
		mu.Lock()
		got = append(got, i)
		inHandler--
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		m := mime.NewMessage(services.TypePlainText, []byte("m-"+strconv.Itoa(i)))
		m.SetHeader("X-Seq", strconv.Itoa(i))
		m.PushPeer("pass/through")
		c.Dispatch(m, &wg)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("handler saw seq %d after %d (position %d)", got[i], got[i-1], i)
		}
	}
}

// passThrough is a peer that returns its input, yielding the scheduler so
// distributors finish in varying order.
type passThrough struct{}

func (passThrough) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	runtime.Gosched()
	return []streamlet.Emission{{Msg: in.Msg}}, nil
}
