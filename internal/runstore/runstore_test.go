package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestKeyDeterministic(t *testing.T) {
	a := Key([]byte("config-1"))
	b := Key([]byte("config-1"))
	c := Key([]byte("config-2"))
	if a != b {
		t.Fatal("same canonical bytes hashed differently")
	}
	if a == c {
		t.Fatal("different canonical bytes collided")
	}
	if len(a) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a))
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("cell"))

	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	if err := s.Put(key, []byte(`{"delivered":42}`)); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if string(data) != `{"delivered":42}` {
		t.Fatalf("data = %q", data)
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestStoreLayoutFanOut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("x"))
	if err := s.Put(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, key[:2], key+".json")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("artefact not at two-level fan-out path: %v", err)
	}
}

func TestStoreRejectsMalformedKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../../../etc/passwd", Key([]byte("x"))[:63] + "Z"} {
		if _, _, err := s.Get(bad); err == nil {
			t.Errorf("Get(%q) accepted malformed key", bad)
		}
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted malformed key", bad)
		}
	}
}

func TestStoreSurvivesPartialWriteDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("cell"))
	// Simulate a killed writer: a stray temp file in the bucket dir.
	bucket := filepath.Join(dir, key[:2])
	if err := os.MkdirAll(bucket, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bucket, "."+key[:8]+"-dead.tmp"), []byte("trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("debris visible as artefact: ok=%v err=%v", ok, err)
	}
	if err := s.Put(key, []byte("good")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Get(key)
	if err != nil || !ok || string(data) != "good" {
		t.Fatalf("after debris: %q ok=%v err=%v", data, ok, err)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len counted debris: %d, %v", n, err)
	}
}

func TestStoreConcurrentSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("hot-cell"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Content-addressed: every writer of a key writes identical
			// bytes, so racing renames are benign.
			if err := s.Put(key, []byte("same-content")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	data, ok, err := s.Get(key)
	if err != nil || !ok || string(data) != "same-content" {
		t.Fatalf("after concurrent puts: %q ok=%v err=%v", data, ok, err)
	}
}

func TestStoreManyKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Put(Key([]byte(fmt.Sprintf("cell-%d", i))), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		data, ok, err := s.Get(Key([]byte(fmt.Sprintf("cell-%d", i))))
		if err != nil || !ok || string(data) != fmt.Sprintf("%d", i) {
			t.Fatalf("cell %d: %q ok=%v err=%v", i, data, ok, err)
		}
	}
	if got, err := s.Len(); err != nil || got != n {
		t.Fatalf("Len = %d, %v", got, err)
	}
}

// BenchmarkStoreCell times the store calls a sweep pays per cell on a 37 KB
// artefact, one quick cell's size: the atomic Put, the Get that loads it,
// and the farm's advisory Claim/Release pair around a publish.
func BenchmarkStoreCell(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	art := make([]byte, 37_000)
	for i := range art {
		art[i] = 'a' + byte(i%26)
	}
	key := Key([]byte("quick-cell"))
	if err := s.Put(key, art); err != nil {
		b.Fatal(err)
	}
	b.Run("Put", func(b *testing.B) {
		b.SetBytes(int64(len(art)))
		for i := 0; i < b.N; i++ {
			if err := s.Put(key, art); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		b.SetBytes(int64(len(art)))
		for i := 0; i < b.N; i++ {
			if data, ok, err := s.Get(key); err != nil || !ok || len(data) != len(art) {
				b.Fatalf("Get: %d bytes, ok=%v, err=%v", len(data), ok, err)
			}
		}
	})
	b.Run("ClaimRelease", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := s.Claim(key, "w1"); err != nil || !ok {
				b.Fatalf("Claim: ok=%v, err=%v", ok, err)
			}
			if err := s.Release(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}
