package eventsim

import "sync"

// Pool runs one long-lived worker goroutine per simulation shard and
// provides the phase barrier the sharded experiment engine synchronises
// windows on. Each Run(phase) wakes every worker with the phase number,
// invokes the shared runner as runner(phase, shard), and returns only after
// all workers finish — a full barrier, so memory written by the coordinator
// before Run is visible to workers (channel send) and memory written by
// workers is visible to the coordinator after Run (WaitGroup.Wait).
//
// The single-shard pool takes a fast path: the runner is called inline on
// the caller's goroutine, so `-shards 1` runs without any goroutine
// hand-off and stays trivially deterministic.
//
// Run allocates nothing in steady state: workers block on a plain int
// channel each, so a 24 h simulated day crossing tens of thousands of
// window barriers adds no GC pressure.
type Pool struct {
	k      int
	runner func(phase, shard int)
	start  []chan int
	wg     sync.WaitGroup
	closed bool
}

// NewPool builds a pool over k shards. With k == 1 it spawns nothing (see
// Run's fast path); otherwise it spawns k worker goroutines, one per shard,
// and the caller of Run only wakes them and blocks at the barrier. The caller
// does not run shard 0 itself: measured on the 2-tile day, that was slower,
// because the worker the caller wakes last waits in the caller P's runnext
// slot until the caller blocks. The runner must be safe for concurrent
// invocation with distinct shard arguments.
func NewPool(k int, runner func(phase, shard int)) *Pool {
	if k < 1 {
		k = 1
	}
	p := &Pool{k: k, runner: runner}
	if k == 1 {
		return p
	}
	p.start = make([]chan int, k)
	for i := range p.start {
		ch := make(chan int, 1)
		p.start[i] = ch
		go p.work(i, ch)
	}
	return p
}

func (p *Pool) work(shard int, ch chan int) {
	for phase := range ch {
		p.runner(phase, shard)
		p.wg.Done()
	}
}

// Shards returns the number of shards the pool drives.
func (p *Pool) Shards() int { return p.k }

// Run executes runner(phase, shard) for every shard and waits for all of
// them: one window-phase barrier.
//
//mlorass:hotpath
func (p *Pool) Run(phase int) {
	if p.start == nil {
		p.runner(phase, 0)
		return
	}
	p.wg.Add(p.k)
	for _, ch := range p.start {
		ch <- phase
	}
	p.wg.Wait()
}

// Close terminates the worker goroutines. The pool must not be Run after
// Close; Close is idempotent.
func (p *Pool) Close() {
	if p.start == nil || p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.start {
		close(ch)
	}
}
