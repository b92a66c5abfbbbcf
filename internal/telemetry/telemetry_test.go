package telemetry

import (
	"reflect"
	"testing"
)

// TestCountersMergeSumsEveryField: the tile engine's counters, and a
// sweep's pooled ones, are the merge of per-recorder counters. A field
// Merge forgot would read zero on every tile count alike, which the
// shard-count equivalence suites cannot see.
func TestCountersMergeSumsEveryField(t *testing.T) {
	var tile Counters
	v := reflect.ValueOf(&tile).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Counters
	sum.Merge(tile)
	sum.Merge(tile)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := uint64(2 * (i + 1)); got.Field(i).Uint() != want {
			t.Errorf("Counters.Merge: field %s = %d after two merges, want %d",
				got.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
}
