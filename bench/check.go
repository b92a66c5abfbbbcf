package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"mlorass/internal/experiment"
)

// checkResult verifies the exact invariants every simulation Result must
// satisfy, whichever engine or executor produced it: the server's delivery
// ledger, the streamed telemetry and the arrival series must all agree.
func checkResult(r *experiment.Result) error {
	c := r.Telemetry.Counters
	switch {
	case uint64(r.Delivered) != c.ServerFresh:
		return fmt.Errorf("delivered %d != telemetry server-fresh %d", r.Delivered, c.ServerFresh)
	case r.Delivered < 0 || uint64(r.Delivered) > r.Generated:
		return fmt.Errorf("delivered %d outside [0, generated %d]", r.Delivered, r.Generated)
	case r.Duplicates != c.ServerDuplicates:
		return fmt.Errorf("duplicates %d != telemetry server-duplicates %d", r.Duplicates, c.ServerDuplicates)
	case r.Delay.N() != uint64(r.Delivered):
		return fmt.Errorf("delay samples %d != delivered %d", r.Delay.N(), r.Delivered)
	case r.Throughput == nil:
		return fmt.Errorf("no throughput series")
	case r.Throughput.Total() != r.Delivered:
		return fmt.Errorf("throughput series sums to %d, delivered %d", r.Throughput.Total(), r.Delivered)
	}
	return nil
}

// outcome is the aggregate a reference pins: one run for the day
// workloads, the sum over every cell for the sweeps.
type outcome struct {
	Generated  uint64  `json:"generated"`
	Delivered  int     `json:"delivered"`
	MeanDelayS float64 `json:"mean_delay_s"`
}

// add folds one Result into the outcome; the mean delay is weighted by
// deliveries, so a sweep's outcome is its pooled mean delay.
func (o *outcome) add(r *experiment.Result) {
	n := float64(o.Delivered + r.Delivered)
	if n > 0 {
		o.MeanDelayS = (o.MeanDelayS*float64(o.Delivered) + r.Delay.Mean()*float64(r.Delivered)) / n
	}
	o.Generated += r.Generated
	o.Delivered += r.Delivered
}

// Reference tolerances. Generated counts depend only on the fleet and the
// slot schedule, which both engines share, so they must match exactly. The
// delivery and delay bands admit the documented serial-vs-tile engine
// divergence (0.4 % of deliveries) with room to spare, so the serial and
// tile engines check against one reference.
const (
	deliveredTol = 0.01
	delayTol     = 0.02
)

// matches compares an outcome with its reference.
func (o outcome) matches(ref outcome) error {
	if o.Generated != ref.Generated {
		return fmt.Errorf("generated %d, reference %d", o.Generated, ref.Generated)
	}
	if d := math.Abs(float64(o.Delivered-ref.Delivered)) / float64(ref.Delivered); d > deliveredTol {
		return fmt.Errorf("delivered %d, reference %d (off by %.2f%%, tolerance %.0f%%)",
			o.Delivered, ref.Delivered, 100*d, 100*deliveredTol)
	}
	if d := math.Abs(o.MeanDelayS-ref.MeanDelayS) / ref.MeanDelayS; d > delayTol {
		return fmt.Errorf("mean delay %.2fs, reference %.2fs (off by %.2f%%, tolerance %.0f%%)",
			o.MeanDelayS, ref.MeanDelayS, 100*d, 100*delayTol)
	}
	return nil
}

// referenceFile is bench/testdata/references.json: outcomes keyed by
// reference group ("day" for both day workloads, "sweep" for both sweeps),
// then by the op's seed.
//
//go:embed testdata/references.json
var referenceFile []byte

func loadReferences() (map[string]map[uint64]outcome, error) {
	var refs map[string]map[uint64]outcome
	if err := json.Unmarshal(referenceFile, &refs); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	return refs, nil
}

// checkReference compares an op's outcome with the recorded reference for
// its seed. It reports whether a reference existed: seeds without one are
// checked by the invariants alone.
func checkReference(group string, seed uint64, o outcome) (checked bool, err error) {
	refs, err := loadReferences()
	if err != nil {
		return false, err
	}
	ref, ok := refs[group][seed]
	if !ok {
		return false, nil
	}
	if err := o.matches(ref); err != nil {
		return true, fmt.Errorf("reference %s seed %d: %w", group, seed, err)
	}
	return true, nil
}
