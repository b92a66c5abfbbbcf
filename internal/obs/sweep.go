package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mlorass/internal/telemetry"
)

// SweepTracker follows one figure sweep as its cells land: counts, the
// exactly-pooled delay histogram of every completed cell, and wall-clock
// pacing. The CLI feeds it from experiment.ParallelSweep progress updates;
// the dashboard and /metrics read it. A nil *SweepTracker reads as an
// empty, inactive sweep.
type SweepTracker struct {
	mu      sync.Mutex
	label   string
	workers int
	total   int
	done    int
	cached  int
	delay   telemetry.Histogram
	started time.Time
	active  bool
	// Farm bookkeeping (expsweep -serve): lease churn per worker plus the
	// robustness counters. Zero-valued when the sweep runs on the pool.
	farm       bool
	leases     map[string]int // worker -> live leases
	retries    int
	expired    int
	quarantine int
	duplicates int
	crashes    int
}

// NewSweepTracker returns an idle tracker.
func NewSweepTracker() *SweepTracker { return &SweepTracker{} }

// Begin starts tracking a sweep of labelled work executed by the given
// worker count. Counters reset; the pooled delay histogram carries over so
// percentiles stay populated across a multi-environment sweep.
func (t *SweepTracker) Begin(label string, workers int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.label = label
	t.workers = workers
	t.total, t.done, t.cached = 0, 0, 0
	t.retries, t.expired, t.quarantine, t.duplicates, t.crashes = 0, 0, 0, 0, 0
	t.leases = nil
	t.farm = false
	t.started = time.Now()
	t.active = true
}

// CellDone records one completed cell and pools its delay histogram.
func (t *SweepTracker) CellDone(completed, total int, cached bool, snap telemetry.Snapshot) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done, t.total = completed, total
	if cached {
		t.cached++
	}
	t.delay.Merge(&snap.Delay)
}

// FarmLeased records a cell granted to worker (the farm's live-lease gauge
// rises). Any Farm* call marks the sweep as farm-executed, which adds the
// lease/retry/quarantine block to Status and the dashboard.
func (t *SweepTracker) FarmLeased(worker string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.farmOn()
	t.leases[worker]++
}

// FarmSettled records worker's lease resolving — completed, failed, or
// expired — so its live-lease gauge falls.
func (t *SweepTracker) FarmSettled(worker string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.farmOn()
	if t.leases[worker] > 0 {
		t.leases[worker]--
	}
}

// FarmRetry counts a failed attempt scheduled for retry; expired marks a
// lease-expiry failure (a lost worker) rather than an explicit one.
func (t *SweepTracker) FarmRetry(expired bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.farmOn()
	t.retries++
	if expired {
		t.expired++
	}
}

// FarmQuarantined counts a cell leaving the pool as a gap.
func (t *SweepTracker) FarmQuarantined() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.farmOn()
	t.quarantine++
}

// FarmDuplicate counts a discarded duplicate completion.
func (t *SweepTracker) FarmDuplicate() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.farmOn()
	t.duplicates++
}

// FarmCrash counts a worker death observed by the farm supervisor.
func (t *SweepTracker) FarmCrash() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.farmOn()
	t.crashes++
}

// farmOn flips the tracker into farm mode. Caller holds the lock.
func (t *SweepTracker) farmOn() {
	t.farm = true
	if t.leases == nil {
		t.leases = map[string]int{}
	}
}

// Finish marks the sweep inactive (running count drops to zero).
func (t *SweepTracker) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active = false
}

// SweepStatus is one consistent reading of a tracker.
type SweepStatus struct {
	Label   string
	Active  bool
	Total   int
	Done    int
	Cached  int
	Running int
	// P50, P95, P99 are pooled delay percentiles in seconds over every
	// completed cell so far.
	P50, P95, P99 float64
	// DelayN is the pooled observation count behind the percentiles.
	DelayN  uint64
	Elapsed time.Duration
	// Farm is the sweep-farm robustness block; Farm.Active is false for
	// in-process sweeps.
	Farm FarmStatus
}

// WorkerLeases is one worker's live-lease gauge.
type WorkerLeases struct {
	Worker string
	Leases int
}

// FarmStatus is the lease/retry/quarantine view of a farm-executed sweep.
type FarmStatus struct {
	// Active reports that the sweep runs under the farm protocol.
	Active bool
	// Retries counts failed attempts scheduled for another try; Expired is
	// the subset caused by lease expiry (lost workers).
	Retries int
	Expired int
	// Quarantined counts cells that left the pool as explicit gaps.
	Quarantined int
	// Duplicates counts discarded duplicate completions.
	Duplicates int
	// Crashes counts worker deaths the supervisor observed.
	Crashes int
	// Workers lists per-worker live leases, sorted by worker name.
	Workers []WorkerLeases
}

// Status returns a consistent snapshot of the sweep.
func (t *SweepTracker) Status() SweepStatus {
	if t == nil {
		return SweepStatus{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := SweepStatus{
		Label:  t.label,
		Active: t.active,
		Total:  t.total,
		Done:   t.done,
		Cached: t.cached,
		DelayN: t.delay.N(),
		P50:    t.delay.Percentile(50),
		P95:    t.delay.Percentile(95),
		P99:    t.delay.Percentile(99),
	}
	if t.active {
		st.Elapsed = time.Since(t.started)
		if rem := t.total - t.done; t.total > 0 && rem > 0 {
			st.Running = t.workers
			if rem < st.Running {
				st.Running = rem
			}
		}
	}
	if t.farm {
		st.Farm = FarmStatus{
			Active:      true,
			Retries:     t.retries,
			Expired:     t.expired,
			Quarantined: t.quarantine,
			Duplicates:  t.duplicates,
			Crashes:     t.crashes,
		}
		for w, n := range t.leases {
			st.Farm.Workers = append(st.Farm.Workers, WorkerLeases{Worker: w, Leases: n})
		}
		sort.Slice(st.Farm.Workers, func(i, j int) bool {
			return st.Farm.Workers[i].Worker < st.Farm.Workers[j].Worker
		})
		if t.active {
			live := 0
			for _, n := range t.leases {
				live += n
			}
			// Under the farm, "running" is the live-lease count, not the
			// worker-pool heuristic.
			st.Running = live
		}
	}
	return st
}

// Line renders the status as a one-line terminal progress report (the
// expsweep -progress output).
func (s SweepStatus) Line() string {
	if s.Total == 0 {
		return fmt.Sprintf("%s: starting", s.Label)
	}
	line := fmt.Sprintf("%s: %d/%d cells (%d cached, %d running) delay p50/p95/p99 %.3g/%.3g/%.3g s [%s]",
		s.Label, s.Done, s.Total, s.Cached, s.Running,
		s.P50, s.P95, s.P99, s.Elapsed.Round(time.Second))
	if s.Farm.Active {
		line += fmt.Sprintf(" farm: %d retries (%d expired), %d quarantined, %d crashes",
			s.Farm.Retries, s.Farm.Expired, s.Farm.Quarantined, s.Farm.Crashes)
	}
	return line
}
