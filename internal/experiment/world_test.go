package experiment

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestCountersAddSumsEveryField: the tile engine's Result counters are the
// sum of its tiles' counters. A field add forgot would read zero on every
// tile count alike, which the shard-count equivalence suites cannot see.
func TestCountersAddSumsEveryField(t *testing.T) {
	var tile counters
	v := reflect.ValueOf(&tile).Elem()
	for i := 0; i < v.NumField(); i++ {
		// The fields are unexported, so set each through its address.
		f := v.Field(i)
		reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetUint(uint64(i + 1))
	}
	var sum counters
	sum.add(&tile)
	sum.add(&tile)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := uint64(2 * (i + 1)); got.Field(i).Uint() != want {
			t.Errorf("counters.add: field %s = %d after two adds, want %d",
				got.Type().Field(i).Name, got.Field(i).Uint(), want)
		}
	}
}
