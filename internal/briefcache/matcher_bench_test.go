package briefcache

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkSuffixMatcher measures every variant at rule-set sizes spanning
// the selection thresholds, on a hit (last label probe) and a miss. The
// numbers justify linearMaxRules/binaryMaxRules: linear wins while the set
// is tiny, binary search wins mid-range, the map amortises best at scale.
func BenchmarkSuffixMatcher(b *testing.B) {
	sizes := []int{4, 8, 16, 64, 256, 1024}
	for _, size := range sizes {
		rules := make([]string, size)
		for i := range rules {
			rules[i] = fmt.Sprintf("site%04d.example%d.com", i, i%7)
		}
		hit := "cdn." + rules[size/2]
		miss := "cdn.unmatched.example.net"
		for name, m := range buildVariants(rules) {
			b.Run(fmt.Sprintf("%d/%s/hit", size, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !m.Match(hit) {
						b.Fatal("expected hit")
					}
				}
			})
			b.Run(fmt.Sprintf("%d/%s/miss", size, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if m.Match(miss) {
						b.Fatal("expected miss")
					}
				}
			})
		}
	}
}

// BenchmarkCacheLookup measures the allocation-free hit paths at steady
// state: the content-key lookup and the parse-free raw-alias resolution,
// then raw-alias hits from GOMAXPROCS goroutines spread over 1 024 held
// briefings — the contention on the cache's one mutex (run it at -cpu 1,2).
func BenchmarkCacheLookup(b *testing.B) {
	c := New(Config{Capacity: 1 << 12})
	body := []byte(`{"Topic":["cached","briefing"]}` + "\n")
	content := KeyOf([]byte("visible text of the page"))
	raw := KeyOf([]byte("<html>raw bytes of the page</html>"))
	c.Insert(content, raw, body, 0)
	raws := make([]Key, 1<<10)
	for i := range raws {
		raws[i] = KeyOf([]byte(fmt.Sprint("<html>page ", i, "</html>")))
		c.Insert(KeyOf([]byte(fmt.Sprint("page ", i))), raws[i], body, 0)
	}

	b.Run("content", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Lookup(content); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("raw-alias", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := c.LookupRaw(raw); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("raw-alias-parallel", func(b *testing.B) {
		b.ReportAllocs()
		var goroutines atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			i := int(goroutines.Add(1)) * 257 // each goroutine starts elsewhere
			for pb.Next() {
				if _, ok := c.LookupRaw(raws[i%len(raws)]); !ok {
					b.Error("miss")
					return
				}
				i++
			}
		})
	})
}
