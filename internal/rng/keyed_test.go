package rng

import "testing"

// TestSeededMatchesNew pins the contract that Seeded is the by-value twin
// of New: same seed, bit-identical stream.
func TestSeededMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, ^uint64(0)} {
		p := New(seed)
		v := Seeded(seed)
		for i := 0; i < 64; i++ {
			a, b := p.Uint64(), v.Uint64()
			if a != b {
				t.Fatalf("seed %#x draw %d: New=%#x Seeded=%#x", seed, i, a, b)
			}
		}
	}
}

// TestSeededZeroGuard proves the all-zero xoshiro state guard survives in
// the by-value constructor (same guard as New).
func TestSeededZeroGuard(t *testing.T) {
	v := Seeded(0)
	if v.s[0]|v.s[1]|v.s[2]|v.s[3] == 0 {
		t.Fatal("Seeded(0) produced an all-zero state")
	}
}

// TestKeyMixersSensitivity checks every argument position of the key
// mixers changes the derived key, and that arities don't collide trivially.
func TestKeyMixersSensitivity(t *testing.T) {
	base := Key3(7, 1, 2, 3)
	variants := []uint64{
		Key3(8, 1, 2, 3),
		Key3(7, 9, 2, 3),
		Key3(7, 1, 9, 3),
		Key3(7, 1, 2, 9),
		Key2(7, 1, 2),
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d collides with base key %#x", i, base)
		}
	}
	// Argument order matters: swapped identities must not collide.
	if Key2(7, 1, 2) == Key2(7, 2, 1) {
		t.Fatal("Key2 is symmetric in its identity words")
	}
	if Key3(7, 1, 2, 3) == Key3(7, 3, 2, 1) {
		t.Fatal("Key3 is symmetric in its identity words")
	}
}

// TestKeyMixersDeterministic pins that key derivation is a pure function.
func TestKeyMixersDeterministic(t *testing.T) {
	if Key2(1, 2, 3) != Key2(1, 2, 3) {
		t.Fatal("Key2 not deterministic")
	}
	a := Seeded(Key3(1, 2, 3, 4))
	b := Seeded(Key3(1, 2, 3, 4))
	for i := 0; i < 8; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("keyed streams diverge at draw %d", i)
		}
	}
}

// TestKeyedDrawAllocs pins the whole keyed-draw path — key mixing, stack
// Source construction, one uniform draw — at zero heap allocations, the
// property the sharded engine's hot path depends on.
func TestKeyedDrawAllocs(t *testing.T) {
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		src := Seeded(Key3(0xabcdef, 12, 34, 56))
		sink += src.Float64()
	})
	if allocs != 0 {
		t.Fatalf("keyed draw allocates %.1f times per run, want 0", allocs)
	}
	_ = sink
}
