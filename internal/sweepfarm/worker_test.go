package sweepfarm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestHeartbeatPeriodClamp pins the period resolution: a configured period
// at or past the lease TTL would guarantee the lease expires mid-compute, so
// it is clamped to TTL/3 exactly like an unset one.
func TestHeartbeatPeriodClamp(t *testing.T) {
	cases := []struct {
		configured, ttl, want time.Duration
	}{
		{0, 30 * time.Second, 10 * time.Second},                // unset: derive TTL/3
		{5 * time.Second, 30 * time.Second, 5 * time.Second},   // sane: honoured
		{30 * time.Second, 30 * time.Second, 10 * time.Second}, // == TTL: clamp
		{60 * time.Second, 30 * time.Second, 10 * time.Second}, // > TTL: clamp
		{-time.Second, 30 * time.Second, 10 * time.Second},     // negative: derive
		{0, 0, time.Second},                   // nothing to derive from
		{2 * time.Second, 0, 2 * time.Second}, // no TTL: honoured
	}
	for _, c := range cases {
		if got := heartbeatPeriod(c.configured, c.ttl); got != c.want {
			t.Errorf("heartbeatPeriod(%v, %v) = %v, want %v", c.configured, c.ttl, got, c.want)
		}
	}
}

// beatRecorder is a Transport that only records heartbeats.
type beatRecorder struct {
	beats chan HeartbeatRequest
}

func (b *beatRecorder) Claim(ClaimRequest) (ClaimReply, error) { return ClaimReply{}, nil }
func (b *beatRecorder) Heartbeat(req HeartbeatRequest) (HeartbeatReply, error) {
	b.beats <- req
	return HeartbeatReply{OK: true}, nil
}
func (b *beatRecorder) Complete(CompleteRequest) (CompleteReply, error) {
	return CompleteReply{Accepted: true}, nil
}

// pendingWaiters reports how many After waiters the fake clock holds — the
// test's synchronisation point with the heartbeat goroutine.
func pendingWaiters(c *FakeClock) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

func awaitWaiter(c *FakeClock) {
	for pendingWaiters(c) == 0 {
		runtime.Gosched()
	}
}

// TestStartHeartbeatsBeatsInsideMisconfiguredTTL drives the heartbeat loop
// on a fake clock with Heartbeat configured at twice the lease TTL — the
// misconfiguration that used to mean no beat could ever land in time — and
// proves beats now fire every TTL/3.
func TestStartHeartbeatsBeatsInsideMisconfiguredTTL(t *testing.T) {
	clock := NewFakeClock(t0)
	tr := &beatRecorder{beats: make(chan HeartbeatRequest, 8)}
	w := NewWorker(WorkerConfig{ID: "w0", Heartbeat: 60 * time.Second}, tr, nil, nil, nil, clock, nil)
	stop := w.startHeartbeats(ClaimReply{OK: true, LeaseID: 42, TTL: 30 * time.Second})
	defer stop()

	const clamped = 10 * time.Second // TTL/3
	for beat := 1; beat <= 3; beat++ {
		awaitWaiter(clock)
		clock.Advance(clamped - time.Millisecond)
		select {
		case req := <-tr.beats:
			t.Fatalf("beat %d fired %v early: %+v", beat, time.Millisecond, req)
		default:
		}
		clock.Advance(time.Millisecond)
		req := <-tr.beats
		if req.LeaseID != 42 || req.Worker != "w0" {
			t.Fatalf("beat %d = %+v, want lease 42 from w0", beat, req)
		}
		if want := t0.Add(time.Duration(beat) * clamped); !req.SentAt.Equal(want) {
			t.Fatalf("beat %d SentAt = %v, want %v", beat, req.SentAt, want)
		}
	}
}

// countingStore counts every ArtifactStore call. Another worker holds the
// write claim on every key, and may already have published its artefact.
type countingStore struct {
	mu    sync.Mutex
	data  []byte
	calls map[string]int
}

func (s *countingStore) count(method string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.calls == nil {
		s.calls = map[string]int{}
	}
	s.calls[method]++
}

func (s *countingStore) Get(string) ([]byte, bool, error) {
	s.count("Get")
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data, s.data != nil, nil
}

func (s *countingStore) Put(_ string, data []byte) error {
	s.count("Put")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = append([]byte(nil), data...)
	return nil
}

func (s *countingStore) Claim(string, string) (bool, error) {
	s.count("Claim")
	return false, nil
}

func (s *countingStore) Release(string) error {
	s.count("Release")
	return nil
}

func (s *countingStore) ClaimInfo(string) (string, time.Time, bool, error) {
	s.count("ClaimInfo")
	return "w9", t0, true, nil
}

func (s *countingStore) BreakClaim(string, string, time.Time) (bool, error) {
	s.count("BreakClaim")
	return false, nil
}

// TestPublishIsOneAtomicPut pins the publish path to a single atomic Put:
// no claim is taken, consulted or broken, and no read precedes the write,
// even while another worker holds a claim and has published the same
// bytes. The store's temp-file-and-rename Put already keeps readers from
// seeing a partial artefact, and the coordinator verifies what it reads.
func TestPublishIsOneAtomicPut(t *testing.T) {
	store := &countingStore{data: []byte("artefact")}
	w := NewWorker(WorkerConfig{ID: "w0"}, nil, store, nil, nil, NewFakeClock(t0), nil)

	if err := w.publish(Cell{Index: 0, Key: "k"}, []byte("artefact")); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if want := map[string]int{"Put": 1}; !reflect.DeepEqual(store.calls, want) {
		t.Fatalf("store calls = %v, want exactly %v", store.calls, want)
	}
}

// flakyTransport fails every Claim except one mid-run success, counting
// attempts.
type flakyTransport struct {
	mu      sync.Mutex
	claims  int
	okClaim int // claim number that succeeds (with an empty "nothing claimable" reply)
}

func (f *flakyTransport) Claim(ClaimRequest) (ClaimReply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.claims++
	if f.claims == f.okClaim {
		return ClaimReply{}, nil
	}
	return ClaimReply{}, fmt.Errorf("%w: injected", ErrLost)
}

func (f *flakyTransport) Heartbeat(HeartbeatRequest) (HeartbeatReply, error) {
	return HeartbeatReply{}, fmt.Errorf("%w: injected", ErrLost)
}

func (f *flakyTransport) Complete(CompleteRequest) (CompleteReply, error) {
	return CompleteReply{}, fmt.Errorf("%w: injected", ErrLost)
}

func (f *flakyTransport) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.claims
}

// TestWorkerGivesUpWhenCoordinatorUnreachable proves the supervision signal:
// a worker whose every transport call fails for GiveUp exits with
// ErrUnreachable instead of polling forever — and a single successful call
// resets the deadline.
func TestWorkerGivesUpWhenCoordinatorUnreachable(t *testing.T) {
	clock := NewFakeClock(t0)
	tr := &flakyTransport{okClaim: 6}
	w := NewWorker(WorkerConfig{
		ID: "w0", Poll: time.Second, GiveUp: 10 * time.Second,
	}, tr, nil, nil, nil, clock, nil)

	errCh := make(chan error, 1)
	go func() { errCh <- w.Run() }()

	for {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("Run: %v, want ErrUnreachable", err)
			}
			// Claim n happens at fake time t0+(n-1)s. Claim 6 succeeds at
			// +5s and resets the deadline, so the worker must survive past
			// the original +10s mark and give up only at +15s — claim 16.
			if got := tr.count(); got != 16 {
				t.Fatalf("claims = %d, want 16 (success at claim 6 must reset the give-up deadline)", got)
			}
			return
		default:
		}
		if pendingWaiters(clock) > 0 {
			clock.Advance(time.Second)
		}
		runtime.Gosched()
	}
}
