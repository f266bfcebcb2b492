package service

import (
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"strings"
	"testing"
)

func benchServer(tb testing.TB, cacheSize int) *Server {
	tb.Helper()
	return New(Config{CacheSize: cacheSize, Logger: log.New(io.Discard, "", 0)})
}

func doContainment(tb testing.TB, s *Server, body string) int {
	req := httptest.NewRequest("POST", "/v1/containment", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// BenchmarkServeContainmentCold measures full request cost with a
// guaranteed cache miss per iteration (every request uses a fresh label,
// so canonical keys never repeat): parse + canonicalize + Glushkov +
// determinize + product + JSON round trip.
func BenchmarkServeContainmentCold(b *testing.B) {
	s := benchServer(b, b.N+1)
	bodies := make([]string, b.N)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(
			`{"engine":"regex","left":"(a|b)* x%d","right":"(a|b)* (a|b) x%d"}`, i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doContainment(b, s, bodies[i]); code != 200 {
			b.Fatalf("code=%d", code)
		}
	}
}

// BenchmarkServeContainmentCacheHit measures the same request served
// from the verdict cache: parse + canonicalize + lookup + JSON round
// trip, skipping the decision procedure entirely.
func BenchmarkServeContainmentCacheHit(b *testing.B) {
	s := benchServer(b, 16)
	body := `{"engine":"regex","left":"(a|b)* x","right":"(a|b)* (a|b) x"}`
	if code := doContainment(b, s, body); code != 200 {
		b.Fatalf("warmup code=%d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := doContainment(b, s, body); code != 200 {
			b.Fatalf("code=%d", code)
		}
	}
	b.StopTimer()
	if st := s.CacheStats(); st.Hits < uint64(b.N) {
		b.Fatalf("hits = %d, want >= %d", st.Hits, b.N)
	}
}

// cacheHitAllocs is the measured allocation count of one cache-hit
// request of BenchmarkServeContainmentCacheHit (Go 1.24, linux/amd64),
// request construction included. Lower it when the cheap path gets
// cheaper; a rise means a request pays for something new.
const cacheHitAllocs = 135

// TestCacheHitAllocBound pins the cost of the cheap path: a repeated
// containment request served from the verdict cache through Handler()
// may not allocate more than cacheHitAllocs times.
func TestCacheHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := benchServer(t, 16)
	body := `{"engine":"regex","left":"(a|b)* x","right":"(a|b)* (a|b) x"}`
	if code := doContainment(t, s, body); code != 200 {
		t.Fatalf("warmup code=%d", code)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if code := doContainment(t, s, body); code != 200 {
			t.Fatalf("code=%d", code)
		}
	})
	if allocs > cacheHitAllocs {
		t.Fatalf("cache hit allocates %v times per request, want <= %d", allocs, cacheHitAllocs)
	}
	if st := s.CacheStats(); st.Hits < 200 {
		t.Fatalf("hits = %d, want >= 200", st.Hits)
	}
}

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// items at random and allocation counts stop being repeatable.
var raceEnabled bool
