package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's host is a small virtual machine whose cores and caches
// are shared with other tenants, and its speed drifts by 20–40 % over
// minutes: the same op, run twice a minute apart, can differ by that much
// in both wall and CPU time. A run's timing metrics are therefore host-speed
// normalised. Just before and just after each op, the child times a fixed
// probe that owes nothing to the code under test (sorting a fixed set of
// numbers), and scales the op's times by referenceProbe over the probe's
// time. A change to the simulator cannot change the probe, so comparisons
// between commits stay valid, while a slow spell of the host slows the
// probe and the op together and largely cancels.

// referenceProbe is the probe's typical time on an idle 2-vCPU host of the
// class the benchmark was calibrated on. It only sets the scale, so that
// normalised times read as seconds on such a host.
const referenceProbe = 25 * time.Millisecond

// probeRounds is how many sorts each probe goroutine times. One probe then
// samples both vCPUs several times, which steadies it: a single sort
// varies by ±15 % from one to the next.
const probeRounds = 2

// probeInput is the probe's fixed input: pseudo-random numbers, generated
// once per process.
var probeInput = func() []float64 {
	xs := make([]float64, 200_000)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = float64(x % 1000003)
	}
	return xs
}()

// probe sorts fresh copies of probeInput on one goroutine per worker at
// once, probeRounds times each, and returns the mean time of one sort.
func probe() time.Duration {
	var (
		wg    sync.WaitGroup
		total atomic.Int64
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probeRounds; i++ {
				xs := append([]float64(nil), probeInput...)
				start := time.Now()
				sort.Float64s(xs)
				total.Add(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	return time.Duration(total.Load() / (workers * probeRounds))
}
